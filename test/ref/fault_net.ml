(* Seeded network fault injection as a frame-forwarding TCP proxy. The
   proxy listens on its own port and forwards every connection to an
   upstream port, one frame at a time. Frames towards the upstream
   pass unchanged; each frame coming back draws one action from a
   seeded schedule. The upstream may be an engine, a router or a
   primary's replication stream: the proxy only sees frames, so one
   proxy covers a request/reply session, a router leg and a
   replication stream alike. Nothing in the serving library knows it
   is there. *)

module Prng = Aqv_util.Prng
module Frame_io = Aqv_serve.Frame_io
module Listener = Aqv_serve.Listener

type action =
  | Delay of float  (** sleep this many seconds, then send the frame *)
  | Truncate of int
      (** send only this many bytes of the frame (header included),
          then close both sides *)
  | Drop  (** send nothing and close both sides *)

(* One seeded draw per frame, under a lock: with several connections on
   one proxy, the interleaving of draws follows scheduling order. *)
type schedule = {
  prng : Prng.t;
  mu : Mutex.t;
  delay_permille : int;
  truncate_permille : int;
  drop_permille : int;
  max_delay_ms : int;
}

(* Per-frame fault probabilities in parts per thousand (defaults 0);
   their sum must be at most 1000. Delays are uniform in
   [0, max_delay_ms] (default 50 ms). *)
let schedule ?(delay_permille = 0) ?(truncate_permille = 0) ?(drop_permille = 0)
    ?(max_delay_ms = 50) ~seed () =
  if
    delay_permille < 0 || truncate_permille < 0 || drop_permille < 0
    || delay_permille + truncate_permille + drop_permille > 1000
    || max_delay_ms < 0
  then invalid_arg "Fault_net.schedule";
  {
    prng = Prng.create seed;
    mu = Mutex.create ();
    delay_permille;
    truncate_permille;
    drop_permille;
    max_delay_ms;
  }

(* The fate of one frame of [frame_len] bytes, header included;
   [Truncate k] has [0 <= k < frame_len]. *)
let draw s ~frame_len =
  Mutex.lock s.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.mu)
    (fun () ->
      let roll = Prng.int s.prng 1000 in
      if roll < s.delay_permille then
        Some (Delay (float_of_int (Prng.int s.prng (s.max_delay_ms + 1)) /. 1000.))
      else if roll < s.delay_permille + s.truncate_permille then
        Some (Truncate (Prng.int s.prng (max frame_len 1)))
      else if roll < s.delay_permille + s.truncate_permille + s.drop_permille then
        Some Drop
      else None)

type counts = { delays : int; truncates : int; drops : int }

type t = {
  schedule : schedule;
  upstream : int;
  listener : Listener.t;
  delayed : int Atomic.t;
  truncated : int Atomic.t;
  dropped : int Atomic.t;
  mu : Mutex.t;
  mutable live : Unix.file_descr list; (* both ends of every open link; guarded by [mu] *)
  mutable thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let frame payload =
  let w = Frame_io.writer () in
  Aqv_util.Wire.raw w payload;
  Frame_io.framed w

(* Closing a link shuts both of its sockets down, which wakes the pump
   blocked on the other one; the session closes the fds. *)
let shutdown fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Frames towards the upstream, unchanged, until either side closes. *)
let pump_up client upstream =
  let rec loop () =
    match Frame_io.read_frame client with
    | None -> ()
    | Some payload ->
      ignore (Frame_io.write_frame upstream payload);
      loop ()
  in
  (try loop () with _ -> ());
  shutdown client;
  shutdown upstream

(* Frames back to the client, one drawn action each. A truncated or
   dropped frame ends the link: the client sees a short frame or an
   EOF, and the upstream a closed connection. *)
let pump_down t client upstream =
  let rec loop () =
    match Frame_io.read_frame upstream with
    | None -> ()
    | Some payload -> (
      let frame = frame payload in
      match draw t.schedule ~frame_len:(String.length frame) with
      | None ->
        ignore (Frame_io.write_framed client frame);
        loop ()
      | Some (Delay s) ->
        Atomic.incr t.delayed;
        Thread.delay s;
        ignore (Frame_io.write_framed client frame);
        loop ()
      | Some (Truncate k) ->
        Atomic.incr t.truncated;
        Frame_io.write_raw client (String.sub frame 0 k)
      | Some Drop -> Atomic.incr t.dropped)
  in
  (try loop () with _ -> ());
  shutdown client;
  shutdown upstream

let session t client =
  let upstream = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.live <- List.filter (fun fd -> fd != client && fd != upstream) t.live);
      try Unix.close upstream with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect upstream (Unix.ADDR_INET (Unix.inet_addr_loopback, t.upstream)) with
      | exception Unix.Unix_error _ -> () (* upstream down: the client sees an EOF *)
      | () ->
        (* registered only once connected, so {!stop} can shut it down *)
        let registered =
          locked t (fun () ->
              let live = not (Listener.stopped t.listener) in
              if live then t.live <- client :: upstream :: t.live;
              live)
        in
        if registered then begin
          let up = Thread.create (pump_up client) upstream in
          pump_down t client upstream;
          Thread.join up
        end)

(* [start ~upstream schedule] listens on an ephemeral loopback port
   (see {!port}) and forwards to 127.0.0.1:[upstream]. *)
let start ~upstream schedule =
  let t =
    {
      schedule;
      upstream;
      listener = Listener.create ~port:0;
      delayed = Atomic.make 0;
      truncated = Atomic.make 0;
      dropped = Atomic.make 0;
      mu = Mutex.create ();
      live = [];
      thread = None;
    }
  in
  t.thread <-
    Some
      (Thread.create
         (fun () ->
           Listener.serve t.listener ~max_conns:64 ~drain_timeout:2. ~on_shed:ignore
             ~on_error:ignore (session t))
         ());
  t

let port t = Listener.port t.listener
let counts t =
  {
    delays = Atomic.get t.delayed;
    truncates = Atomic.get t.truncated;
    drops = Atomic.get t.dropped;
  }

(* Stop accepting, close every open link, wait for the sessions. *)
let stop t =
  Listener.stop t.listener;
  locked t (fun () -> List.iter shutdown t.live);
  Option.iter Thread.join t.thread;
  t.thread <- None
