let src = Logs.Src.create "aqv.listener" ~doc:"TCP accept loop under engine and router"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopped : bool Atomic.t;
  wake_r : Unix.file_descr; (* self-pipe: the first [stop] writes one byte *)
  wake_w : Unix.file_descr;
  mu : Mutex.t;
  mutable sessions : Unix.file_descr list; (* running, guarded by [mu] *)
}

let create ~port =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  let bound_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  { sock; bound_port; stopped = Atomic.make false; wake_r; wake_w; mu = Mutex.create (); sessions = [] }

let port t = t.bound_port

(* Only the call that flips the flag writes, so the pipe gets exactly one
   byte, and [serve] closes the pipe only once that byte is there: no
   write lands on a closed or reused fd. No lock is taken, so a signal
   handler may call this whichever thread it interrupts. *)
let stop t =
  if not (Atomic.exchange t.stopped true) then
    ignore (Unix.single_write_substring t.wake_w "x" 0 1)

let stopped t = Atomic.get t.stopped

let active t =
  Mutex.lock t.mu;
  let n = List.length t.sessions in
  Mutex.unlock t.mu;
  n

(* The framed refusal a shed connection gets: about 25 bytes, which a
   freshly accepted socket's empty send buffer takes without blocking,
   so the accept loop writes it itself. *)
let overloaded =
  let w = Frame_io.writer () in
  Aqv.Protocol.encode_reply w (Aqv.Protocol.Refused "overloaded");
  Frame_io.framed w

let session_thread t ~on_error session fd =
  Fun.protect
    ~finally:(fun () ->
      (* closed under [mu]: [serve]'s shutdown never meets a reused fd *)
      Mutex.lock t.mu;
      t.sessions <- List.filter (fun s -> s <> fd) t.sessions;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.unlock t.mu)
    (fun () ->
      try session fd with
      | (Out_of_memory | Stack_overflow | Assert_failure _) as e ->
        (* never swallow runtime-fatal conditions *)
        Log.err (fun m -> m "FATAL in session: %s" (Printexc.to_string e));
        raise e
      | e -> on_error e)

(* The accept loop blocks in select(2) on the listening socket and the
   self-pipe, and ends once [stop]'s byte is there: a stop wakes it at
   once, and an idle listener never wakes. Signal handlers only call
   [stop], so shutdown needs no pthread-kill / close-from-another-thread
   games. *)
let serve ?(on_stop = ignore) t ~max_conns ~drain_timeout ~on_shed ~on_error session =
  let woken = ref false in
  while not !woken do
    match Unix.select [ t.sock; t.wake_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, _, _ when List.mem t.wake_r r -> woken := true
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.sock with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | conn, _ ->
        Mutex.lock t.mu;
        let admitted = List.length t.sessions < max_conns in
        if admitted then t.sessions <- conn :: t.sessions;
        Mutex.unlock t.mu;
        if admitted then ignore (Thread.create (session_thread t ~on_error session) conn)
        else begin
          on_shed ();
          Frame_io.write_raw conn overloaded;
          try Unix.close conn with Unix.Unix_error _ -> ()
        end)
  done;
  on_stop ();
  (* idle sessions read EOF and end, replies in flight still go out *)
  Mutex.lock t.mu;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.sessions;
  Mutex.unlock t.mu;
  let deadline = Unix.gettimeofday () +. drain_timeout in
  while active t > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  let leftover = active t in
  if leftover > 0 then
    Log.warn (fun m -> m "drain timeout: %d session(s) still active" leftover);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.sock; t.wake_r; t.wake_w ]
