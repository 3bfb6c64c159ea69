module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh

let src = Logs.Src.create "aqv.serve" ~doc:"IFMH serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

type publisher = {
  subscribe : Unix.file_descr -> from_epoch:int option -> unit;
  ship : base:Ifmh.t -> index:Ifmh.t -> Ifmh.delta -> unit;
  lag : unit -> int;
}

type config = {
  port : int;
  max_conns : int;
  backlog : int;
  idle_timeout : float;
  read_timeout : float;
  write_timeout : float;
  cache_capacity : int;
  stats_interval : float;
  drain_timeout : float;
  once : bool;
  faults : Faults.t option;
  store : Aqv_store.Store.t option;
  accept_republish : bool;
  publisher : publisher option;
}

let default_config =
  {
    port = 7464;
    max_conns = 64;
    backlog = 64;
    idle_timeout = 10.;
    read_timeout = 5.;
    write_timeout = 5.;
    cache_capacity = 1024;
    stats_interval = 0.;
    drain_timeout = 5.;
    once = false;
    faults = None;
    store = None;
    accept_republish = true;
    publisher = None;
  }

type t = {
  config : config;
  index : Ifmh.t Atomic.t;
  listen_sock : Unix.file_descr;
  bound_port : int;
  stats : Stats.t;
  cache : Cache.t;
  stopped : bool Atomic.t;
  mu : Mutex.t;
  republish_mu : Mutex.t;
  mutable active : int;
  mutable compactor : Thread.t option;  (* guarded by [mu] *)
}

let create config index =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen sock config.backlog;
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      config;
      index = Atomic.make index;
      listen_sock = sock;
      bound_port;
      stats = Stats.create ();
      cache = Cache.create ~capacity:config.cache_capacity;
      stopped = Atomic.make false;
      mu = Mutex.create ();
      republish_mu = Mutex.create ();
      active = 0;
      compactor = None;
    }
  in
  Stats.set_epoch t.stats (Ifmh.epoch index);
  t

let port t = t.bound_port
let stats t = t.stats
let stop t = Atomic.set t.stopped true
let index t = Atomic.get t.index

(* Hot swap: install a new index without restarting. The epoch must
   strictly advance — swaps serialize under [t.mu], so two racing
   republishes cannot install out of order; request paths never take the
   lock, they just [Atomic.get] a snapshot. The response cache needs no
   flushing: keys embed the epoch of the snapshot that produced them, so
   pre-swap entries simply become unreachable. *)
let swap_index t index' =
  Mutex.lock t.mu;
  let installed = Ifmh.epoch index' > Ifmh.epoch (Atomic.get t.index) in
  if installed then Atomic.set t.index index';
  Mutex.unlock t.mu;
  if installed then begin
    Stats.index_swapped t.stats;
    Stats.set_epoch t.stats (Ifmh.epoch index')
  end;
  installed

(* Raised internally when fault injection kills the reply: the session
   ends, but it is not an error of the session machinery itself. *)
exception Fault_closed

let encode_reply_bytes reply =
  let w = Wire.writer () in
  Protocol.encode_reply w reply;
  Wire.contents w

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Compaction runs off the reply path: rewriting the snapshot of a
   large index (encode + write + fsync) can outlast a client's read
   timeout, and the triggering delta is already durable in the log, so
   the Republished ack must not wait for it. The background step
   retakes [republish_mu] — compaction swaps the store's log handle, so
   it serializes with appends exactly like a republish — and rechecks
   the policy under the lock, so a compaction that already happened (or
   a log that grew past the threshold again) is handled correctly.
   Failure only logs: an oversized log is still a correct log. *)
let compact_store t store =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      try
        if Aqv_store.Store.maybe_compact store (Atomic.get t.index) then begin
          Stats.compacted t.stats;
          Log.info (fun m ->
              m "store compacted at epoch %d" (Ifmh.epoch (Atomic.get t.index)))
        end
      with Aqv_store.Error.Error e ->
        Log.warn (fun m ->
            m "store compaction failed: %s" (Aqv_store.Error.to_string e)))

(* At most one compactor thread at a time; a due-check that races with
   a finishing compaction just finds the fresh log not due next time. *)
let schedule_compaction t =
  match t.config.store with
  | None -> ()
  | Some store when not (Aqv_store.Store.compaction_due store) -> ()
  | Some store ->
      Mutex.lock t.mu;
      if Option.is_none t.compactor then
        t.compactor <-
          Some
            (Thread.create
               (fun () ->
                 Fun.protect
                   ~finally:(fun () ->
                     Mutex.lock t.mu;
                     t.compactor <- None;
                     Mutex.unlock t.mu)
                   (fun () -> compact_store t store))
               ());
      Mutex.unlock t.mu

(* The single mutation path shared by the wire ([Protocol.Republish])
   and a follower replaying its replication stream. The whole path
   serializes under [republish_mu] so the durability order is
   unambiguous: replay the delta, append+fsync it to the store's log,
   swap, ship to subscribers, and only then ack — a crash at any point
   before the ack leaves a log the recovery path replays to at most the
   acked epoch (durable-before-ack), and a delta reaches a follower
   strictly after its fsync here (durable-before-ship). A store append
   failure refuses the republish without touching serving state. *)
let republish t delta =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      let base = Atomic.get t.index in
      match Ifmh.apply_delta delta base with
      | exception (Failure msg | Invalid_argument msg) -> Error msg
      | index' -> (
        if Ifmh.epoch index' <= Ifmh.epoch base then
          Error "Engine: republish does not advance the epoch"
        else
          match
            Option.iter (fun s -> Aqv_store.Store.append s ~base delta) t.config.store
          with
          | exception Aqv_store.Error.Error e ->
            Error ("Store: " ^ Aqv_store.Error.to_string e)
          | () ->
            Option.iter (fun _ -> Stats.log_appended t.stats) t.config.store;
            ignore (swap_index t index');
            Option.iter
              (fun p ->
                p.ship ~base ~index:index' delta;
                Stats.delta_shipped t.stats;
                Stats.set_follower_lag t.stats (p.lag ()))
              t.config.publisher;
            Log.info (fun m ->
                m "republished: now serving epoch %d" (Ifmh.epoch index'));
            schedule_compaction t;
            Ok (Ifmh.epoch index')))

(* Full-state install, the follower's answer to [Snapshot_frame]: make
   the new index durable (snapshot rewrite + log reset — an interrupted
   compaction is benign, recovery skips stale frames) BEFORE serving
   it, mirroring the append-then-swap order of [republish]. *)
let install_snapshot t index' =
  Mutex.lock t.republish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.republish_mu)
    (fun () ->
      if Ifmh.epoch index' <= Ifmh.epoch (Atomic.get t.index) then
        Error "Engine: snapshot does not advance the epoch"
      else
        match
          Option.iter (fun s -> Aqv_store.Store.compact s index') t.config.store
        with
        | exception Aqv_store.Error.Error e ->
          Error ("Store: " ^ Aqv_store.Error.to_string e)
        | () ->
          Option.iter (fun _ -> Stats.compacted t.stats) t.config.store;
          ignore (swap_index t index');
          Log.info (fun m ->
              m "snapshot installed: now serving epoch %d" (Ifmh.epoch index'));
          Ok (Ifmh.epoch index'))

(* What a session should do with one decoded request: answer it, or
   hand the connection over to the replication publisher. *)
type action = Reply of string | Handoff of { from_epoch : int option }

(* Compute (or fetch from cache) the encoded reply for one raw request
   payload. Get_stats bypasses the cache — its reply changes with every
   request. Malformed payloads become Refused, uniformly for Failure
   and Invalid_argument (Bytes/array bounds in decoders). *)
let reply_bytes_for t payload =
  match Protocol.decode_request (Wire.reader payload) with
  | exception (Failure msg | Invalid_argument msg) ->
    Stats.on_request t.stats `Malformed;
    Stats.on_refused t.stats;
    Reply (encode_reply_bytes (Protocol.Refused msg))
  | Protocol.Get_stats ->
    Stats.on_request t.stats `Stats;
    Reply (encode_reply_bytes (Protocol.Stats (Stats.to_assoc t.stats)))
  | Protocol.Subscribe { from_epoch } -> (
    Stats.on_request t.stats `Subscribe;
    match t.config.publisher with
    | Some _ -> Handoff { from_epoch }
    | None ->
      Stats.on_refused t.stats;
      Reply (encode_reply_bytes (Protocol.Refused "Engine: replication not enabled")))
  | Protocol.Republish delta ->
    (* uncached, like Get_stats: a republish mutates serving state *)
    Stats.on_request t.stats `Republish;
    let reply =
      if not t.config.accept_republish then begin
        Stats.on_refused t.stats;
        Protocol.Refused "Engine: read replica, republish to the primary"
      end
      else
        match republish t delta with
        | Ok epoch -> Protocol.Republished epoch
        | Error msg ->
          Stats.on_refused t.stats;
          Protocol.Refused msg
    in
    Reply (encode_reply_bytes reply)
  | request ->
    Stats.on_request t.stats
      (match request with
      | Protocol.Run_query _ -> `Query
      | Protocol.Run_rank _ -> `Rank
      | Protocol.Run_count _ -> `Count
      | Protocol.Get_stats | Protocol.Republish _ | Protocol.Subscribe _ ->
        assert false);
    (* one snapshot per request: the reply and its cache key always
       describe the same epoch, even if a swap lands mid-request *)
    let index = Atomic.get t.index in
    let key = string_of_int (Ifmh.epoch index) ^ ":" ^ payload in
    (match Cache.find t.cache key with
    | Some bytes ->
      Stats.cache_hit t.stats;
      Reply bytes
    | None ->
      Stats.cache_miss t.stats;
      let reply = Protocol.handle index request in
      (match reply with
      | Protocol.Refused _ -> Stats.on_refused t.stats
      | _ -> ());
      let bytes = encode_reply_bytes reply in
      Cache.add t.cache key bytes;
      Reply bytes)

let send_reply t fd bytes =
  let deliver () =
    let n = Frame_io.write_frame ~timeout:t.config.write_timeout fd bytes in
    Stats.add_bytes_out t.stats n
  in
  match t.config.faults with
  | None -> deliver ()
  | Some f -> (
    let framed_len = String.length bytes + 4 in
    match Faults.draw f ~frame_len:framed_len with
    | None -> deliver ()
    | Some (Faults.Delay s) ->
      Stats.on_fault t.stats `Delay;
      Thread.delay s;
      deliver ()
    | Some (Faults.Truncate k) ->
      Stats.on_fault t.stats `Truncate;
      Frame_io.write_raw fd (String.sub (Frame_io.frame bytes) 0 k);
      raise Fault_closed
    | Some Faults.Drop ->
      Stats.on_fault t.stats `Drop;
      raise Fault_closed)

let session t fd =
  let rec loop () =
    match
      Frame_io.read_frame ~header_timeout:t.config.idle_timeout
        ~body_timeout:t.config.read_timeout fd
    with
    | None -> () (* clean close *)
    | Some payload -> (
      Stats.add_bytes_in t.stats (String.length payload + 4);
      let t0 = now_us () in
      let action = reply_bytes_for t payload in
      Stats.observe_latency_us t.stats (now_us () - t0);
      match action with
      | Reply bytes ->
        send_reply t fd bytes;
        loop ()
      | Handoff { from_epoch } ->
        (* the connection becomes a one-way replication stream; the
           publisher's feeder runs right here, in this session thread,
           so the fd stays owned (and finally closed) by the session *)
        let publisher = Option.get t.config.publisher in
        Stats.follower_connected t.stats;
        Fun.protect
          ~finally:(fun () -> Stats.follower_disconnected t.stats)
          (fun () -> publisher.subscribe fd ~from_epoch))
  in
  loop ()

let drop_session t exn =
  Stats.session_dropped t.stats;
  Log.info (fun m -> m "session dropped: %s" (Printexc.to_string exn))

let session_thread t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.mu;
      t.active <- t.active - 1;
      Mutex.unlock t.mu)
    (fun () ->
      try session t fd with
      | (Out_of_memory | Stack_overflow | Assert_failure _) as e ->
        (* never swallow runtime-fatal conditions *)
        Log.err (fun m -> m "FATAL in session: %s" (Printexc.to_string e));
        raise e
      | Fault_closed -> () (* injected fault already counted *)
      | Frame_io.Timeout as e -> drop_session t e
      | Unix.Unix_error _ as e -> drop_session t e
      | Failure _ as e -> drop_session t e)

let shed t fd =
  Stats.conn_refused t.stats;
  ignore
    (Thread.create
       (fun () ->
         (try
            let bytes = encode_reply_bytes (Protocol.Refused "overloaded") in
            ignore (Frame_io.write_frame ~timeout:1.0 fd bytes)
          with _ -> ());
         try Unix.close fd with Unix.Unix_error _ -> ())
       ())

let stats_logger t =
  ignore
    (Thread.create
       (fun () ->
         let rec loop elapsed =
           if not (Atomic.get t.stopped) then
             if elapsed >= t.config.stats_interval then begin
               Log.app (fun m -> m "%a" Stats.pp t.stats);
               loop 0.
             end
             else begin
               Thread.delay 0.25;
               loop (elapsed +. 0.25)
             end
         in
         loop 0.)
       ())

(* The accept loop polls [stopped] between short selects instead of
   blocking in accept(2): signal handlers only set the flag, so
   shutdown needs no pthread-kill / close-from-another-thread games. *)
let serve t =
  if t.config.stats_interval > 0. then stats_logger t;
  let rec accept_loop () =
    if not (Atomic.get t.stopped) then begin
      let readable =
        match Unix.select [ t.listen_sock ] [] [] 0.2 with
        | r, _, _ -> r <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      let accepted =
        if not readable then None
        else
          match Unix.accept t.listen_sock with
          | conn, _ -> Some conn
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            None
      in
      match accepted with
      | None -> accept_loop ()
      | Some conn ->
        let admitted =
          Mutex.lock t.mu;
          let ok = t.active < t.config.max_conns in
          if ok then t.active <- t.active + 1;
          Mutex.unlock t.mu;
          ok
        in
        if not admitted then begin
          shed t conn;
          accept_loop ()
        end
        else begin
          Stats.conn_accepted t.stats;
          if t.config.once then begin
            session_thread t conn;
            stop t
          end
          else begin
            ignore (Thread.create (fun () -> session_thread t conn) ());
            accept_loop ()
          end
        end
    end
  in
  accept_loop ();
  (* drain in-flight sessions, bounded *)
  let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
  Mutex.lock t.mu;
  while t.active > 0 && Unix.gettimeofday () < deadline do
    Mutex.unlock t.mu;
    Thread.delay 0.05;
    Mutex.lock t.mu
  done;
  let leftover = t.active in
  let compactor = t.compactor in
  Mutex.unlock t.mu;
  if leftover > 0 then
    Log.warn (fun m -> m "drain timeout: %d session(s) still active" leftover);
  (* the caller closes the store after [serve] returns, so a background
     compaction must not outlive us *)
  Option.iter Thread.join compactor;
  (try Unix.close t.listen_sock with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "stopped: %a" Stats.pp t.stats)
