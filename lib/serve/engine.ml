module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh

let src = Logs.Src.create "aqv.serve" ~doc:"IFMH serving engine"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  port : int;
  max_conns : int;
  idle_timeout : float;
  read_timeout : float;
  drain_timeout : float;
  store : Aqv_store.Store.t option;
  accept_republish : bool;
  hub : Hub.settings;
}

let default_config =
  {
    port = 7464;
    max_conns = 64;
    idle_timeout = 10.;
    read_timeout = 5.;
    drain_timeout = 5.;
    store = None;
    accept_republish = true;
    hub = Hub.default_settings;
  }

type t = {
  config : config;
  index : Ifmh.t Atomic.t;
  listener : Listener.t;
  stats : Stats.t;
  cache : Cache.t;
  republish_mu : Mutex.t;
      (* the one mutation lock: a republish, a snapshot install and a
         compaction hold it throughout; it guards [compactor] and
         orders the hub's creation against [ship] and [reset] *)
  hub : Hub.t option Atomic.t;  (* see [hub_locked] and [stop_hub] *)
  mutable compactor : Thread.t option;
}

let create config index =
  let t =
    {
      config;
      index = Atomic.make index;
      listener = Listener.create ~port:config.port;
      stats = Stats.create ();
      cache = Cache.create ();
      republish_mu = Mutex.create ();
      hub = Atomic.make None;
      compactor = None;
    }
  in
  Stats.set t.stats Epoch (Ifmh.epoch index);
  t

let port t = Listener.port t.listener
let stats t = t.stats
let stop t = Listener.stop t.listener
let index t = Atomic.get t.index

let locked t f =
  Mutex.lock t.republish_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.republish_mu) f

(* Hot swap: install a new index without restarting. Its callers hold
   [republish_mu] and have checked that the epoch advances, so swaps
   cannot install out of order; request paths never take the lock,
   they just [Atomic.get] a snapshot. The response cache needs no
   flushing: keys embed the epoch of the snapshot that produced them,
   so pre-swap entries simply become unreachable. *)
let swap_index t index' =
  Atomic.set t.index index';
  Stats.incr t.stats Index_swaps;
  Stats.set t.stats Epoch (Ifmh.epoch index')

(* A session encodes every reply into its one writer, which keeps the
   buffer its largest reply grew, and writes it from there as a frame.
   Only a reply the cache admits is copied out, framed, so a hit is one
   write of the stored frame. *)
type action =
  | Encoded  (* the reply is in the session's writer *)
  | Cached of string
  | Handoff of { from_epoch : int option }
      (* the connection goes over to the replication hub *)

let encode w reply =
  Wire.reset w;
  Protocol.encode_reply w reply;
  Encoded

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Compaction runs off the reply path: rewriting the snapshot of a
   large index (encode + write + fsync) can outlast a client's read
   timeout, and the triggering delta is already durable in the log, so
   the Republished ack must not wait for it. The compactor thread holds
   [republish_mu] throughout — compaction swaps the store's log handle,
   so it serializes with appends exactly like a republish — and
   rechecks the policy under the lock, so a compaction that already
   happened (or a log that grew past the threshold again) is handled
   correctly. Failure only logs: an oversized log is still a correct
   log. At most one compactor thread is pending at a time. Called with
   [republish_mu] held. *)
let schedule_compaction t =
  match t.config.store with
  | Some store when Option.is_none t.compactor && Aqv_store.Store.compaction_due store ->
    let compact () =
      locked t (fun () ->
          t.compactor <- None;
          try
            if Aqv_store.Store.maybe_compact store (Atomic.get t.index) then begin
              Stats.incr t.stats Compactions;
              Log.info (fun m ->
                  m "store compacted at epoch %d" (Ifmh.epoch (Atomic.get t.index)))
            end
          with Aqv_store.Error.Error e ->
            Log.warn (fun m ->
                m "store compaction failed: %s" (Aqv_store.Error.to_string e)))
    in
    t.compactor <- Some (Thread.create compact ())
  | _ -> ()

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
  locked t (fun () ->
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
            Option.iter (fun _ -> Stats.incr t.stats Log_appends) t.config.store;
            swap_index t index';
            Option.iter
              (fun hub ->
                Hub.ship hub ~base_epoch:(Ifmh.epoch base) delta;
                Stats.incr t.stats Deltas_shipped)
              (Atomic.get t.hub);
            Log.info (fun m ->
                m "republished: now serving epoch %d" (Ifmh.epoch index'));
            schedule_compaction t;
            Ok (Ifmh.epoch index')))

(* Full-state install, the follower's answer to [Snapshot_frame]: make
   the new index durable (snapshot rewrite + log reset — an interrupted
   compaction is benign, recovery skips stale frames) BEFORE serving
   it, mirroring the append-then-swap order of [republish]. The hub's
   backlog then no longer leads to the served epoch, so it is emptied:
   a subscriber behind it catches up by a snapshot of what is served. *)
let install_snapshot t index' =
  locked t (fun () ->
      if Ifmh.epoch index' <= Ifmh.epoch (Atomic.get t.index) then
        Error "Engine: snapshot does not advance the epoch"
      else
        match
          Option.iter (fun s -> Aqv_store.Store.compact s index') t.config.store
        with
        | exception Aqv_store.Error.Error e ->
          Error ("Store: " ^ Aqv_store.Error.to_string e)
        | () ->
          Option.iter (fun _ -> Stats.incr t.stats Compactions) t.config.store;
          swap_index t index';
          Option.iter Hub.reset (Atomic.get t.hub);
          Log.info (fun m ->
              m "snapshot installed: now serving epoch %d" (Ifmh.epoch index'));
          Ok (Ifmh.epoch index'))

(* Whoever swaps the hub out stops it, so it stops once. No lock: a
   stop never waits for a compaction to release [republish_mu]. *)
let stop_hub t = Option.iter Hub.stop (Atomic.exchange t.hub None)

(* The hub, created by the first Subscribe: an engine no one subscribes
   to runs no heartbeat thread and encodes no delta frame. Called with
   [republish_mu] held, which orders the creation against [ship] and
   [reset]. The listener's flag is set before [serve] runs [stop_hub],
   so a hub created as the engine stops is stopped by the re-check here
   or by that [stop_hub]: no hub outlives [serve]. *)
let hub_locked t =
  if Option.is_none (Atomic.get t.hub) && not (Listener.stopped t.listener) then begin
    Atomic.set t.hub (Some (Hub.create t.config.hub t.index));
    if Listener.stopped t.listener then stop_hub t
  end;
  Atomic.get t.hub

(* The reply to one raw request payload: encoded into the session's
   writer [w], or a cached frame. Get_stats bypasses the cache — its
   reply changes with every request. Malformed payloads become Refused,
   uniformly for Failure and Invalid_argument (Bytes/array bounds in
   decoders). *)
let reply_for t w payload =
  let refused msg =
    Stats.incr t.stats Replies_refused;
    encode w (Protocol.Refused msg)
  in
  match Protocol.decode_request (Wire.reader payload) with
  | exception (Failure msg | Invalid_argument msg) ->
    Stats.incr t.stats Req_malformed;
    refused msg
  | Protocol.Get_stats ->
    Stats.incr t.stats Req_stats;
    Option.iter
      (fun hub -> Stats.set t.stats Follower_lag_frames (Hub.lag hub))
      (Atomic.get t.hub);
    encode w (Protocol.Stats (Stats.to_assoc t.stats))
  | Protocol.Subscribe { from_epoch } ->
    Stats.incr t.stats Req_subscribe;
    Handoff { from_epoch }
  | Protocol.Republish delta -> (
    (* uncached, like Get_stats: a republish mutates serving state *)
    Stats.incr t.stats Req_republish;
    if not t.config.accept_republish then
      refused "Engine: read replica, republish to the primary"
    else
      match republish t delta with
      | Ok epoch -> encode w (Protocol.Republished epoch)
      | Error msg -> refused msg)
  | request -> (
    Stats.incr t.stats
      (match request with
      | Protocol.Run_query _ -> Req_query
      | Protocol.Run_rank _ -> Req_rank
      | Protocol.Run_count _ -> Req_count
      | Protocol.Get_stats | Protocol.Republish _ | Protocol.Subscribe _ ->
        assert false);
    (* one snapshot per request: the reply and its cache key always
       describe the same epoch, even if a swap lands mid-request *)
    let index = Atomic.get t.index in
    let key = string_of_int (Ifmh.epoch index) ^ ":" ^ payload in
    match Cache.find t.cache key with
    | Some frame ->
      Stats.incr t.stats Cache_hits;
      Cached frame
    | None ->
      Stats.incr t.stats Cache_misses;
      let action =
        match Protocol.handle index request with
        | Protocol.Refused msg -> refused msg
        | reply -> encode w reply
      in
      Cache.add t.cache key (fun () -> Frame_io.framed w);
      action)

(* seconds to write one reply *)
let write_timeout = 5.

let session t fd =
  Stats.incr t.stats Conns_accepted;
  let w = Frame_io.writer () in
  let sent n = Stats.add t.stats Bytes_out n in
  let rec loop () =
    match
      Frame_io.read_frame ~header_timeout:t.config.idle_timeout
        ~body_timeout:t.config.read_timeout fd
    with
    | None -> () (* clean close *)
    | Some payload -> (
      Stats.add t.stats Bytes_in (String.length payload + 4);
      let t0 = now_us () in
      let action = reply_for t w payload in
      Stats.observe_latency_us t.stats (now_us () - t0);
      match action with
      | Encoded ->
        sent (Frame_io.write_writer ~timeout:write_timeout fd w);
        loop ()
      | Cached frame ->
        sent (Frame_io.write_framed ~timeout:write_timeout fd frame);
        loop ()
      | Handoff { from_epoch } ->
        (* the connection becomes a one-way replication stream; the
           hub's feeder runs right here, in this session thread, so the
           fd stays owned (and finally closed) by the session *)
        Option.iter
          (fun hub ->
            Stats.incr t.stats Followers_connected;
            Fun.protect
              ~finally:(fun () -> Stats.add t.stats Followers_connected (-1))
              (fun () -> Hub.subscribe hub fd ~from_epoch))
          (locked t (fun () -> hub_locked t)))
  in
  loop ()

let drop_session t exn =
  Stats.incr t.stats Sessions_dropped;
  Log.info (fun m -> m "session dropped: %s" (Printexc.to_string exn))

(* Once the accept loop ends, the hub stops before the drain: its
   feeders wait on the hub, not on their sockets, and their sessions
   end only when it releases them. *)
let serve t =
  Listener.serve t.listener ~max_conns:t.config.max_conns
    ~drain_timeout:t.config.drain_timeout ~on_stop:(fun () -> stop_hub t)
    ~on_shed:(fun () -> Stats.incr t.stats Conns_refused)
    ~on_error:(drop_session t) (session t);
  (* the caller closes the store after [serve] returns, so a background
     compaction must not outlive us *)
  Option.iter Thread.join (locked t (fun () -> t.compactor));
  Log.info (fun m -> m "stopped: %a" Stats.pp t.stats)
