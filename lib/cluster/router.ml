module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Frame_io = Aqv_serve.Frame_io
module Roundtrip = Aqv_serve.Roundtrip
module Listener = Aqv_serve.Listener

let src = Logs.Src.create "aqv.cluster.router" ~doc:"epoch-aware read router"

module Log = (val Logs.src_log src : Logs.LOG)

type replica = {
  host : Unix.inet_addr;
  port : int;
  mutable known_epoch : int; (* -1 = down/unknown; guarded by [mu] *)
  mutable served : int; (* replies forwarded from here; guarded by [mu] *)
}

type t = {
  replicas : replica array;
  poll_interval : float;
  listener : Listener.t;
  mu : Mutex.t;
  mutable rr : int; (* round-robin cursor; guarded by [mu] *)
  mutable poller : Thread.t option;
}

(* Replica roundtrips: one attempt each (the poller retries forever and
   a failed forward moves on to the next candidate), and the read bound
   for a replica's reply and for writing one back to the client. *)
let opts = { Roundtrip.default_opts with Roundtrip.attempts = 1 }
let io_timeout = opts.Roundtrip.read_timeout

(* How long a client session may sit idle between requests, how many
   sessions run at once (the engine's default bound), and how long a
   stop waits for them. *)
let idle_timeout = 10.
let max_conns = 64
let drain_timeout = 5.

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* One stats roundtrip per replica: its advertised epoch, or -1 when
   unreachable or not answering with stats. A single attempt per poll —
   the poller retries forever anyway. *)
let poll_now t =
  Array.iter
    (fun r ->
      let epoch =
        match Roundtrip.call ~opts ~host:r.host ~port:r.port Protocol.Get_stats with
        | Protocol.Stats kvs -> (
          match List.assoc_opt "epoch" kvs with Some e -> e | None -> -1)
        | _ | (exception _) -> -1
      in
      locked t (fun () -> r.known_epoch <- epoch))
    t.replicas

let poller_loop t =
  let rec sleep remaining =
    if remaining > 0. && not (Listener.stopped t.listener) then begin
      Thread.delay (Float.min 0.05 remaining);
      sleep (remaining -. 0.05)
    end
  in
  while not (Listener.stopped t.listener) do
    sleep t.poll_interval;
    if not (Listener.stopped t.listener) then poll_now t
  done

let create ?(poll_interval = 0.5) ?(port = 0) ~replicas () =
  if replicas = [] then invalid_arg "Router.create: no replicas";
  let t =
    {
      replicas =
        Array.of_list
          (List.map
             (fun (host, port) -> { host; port; known_epoch = -1; served = 0 })
             replicas);
      poll_interval;
      listener = Listener.create ~port;
      mu = Mutex.create ();
      rr = 0;
      poller = None;
    }
  in
  (* synchronous first poll so routing is epoch-aware from request one *)
  poll_now t;
  t.poller <- Some (Thread.create poller_loop t);
  t

let port t = Listener.port t.listener

let counts t =
  locked t (fun () ->
      Array.to_list
        (Array.map
           (fun r ->
             (Printf.sprintf "%s:%d" (Unix.string_of_inet_addr r.host) r.port, r.served))
           t.replicas))

let epochs t =
  locked t (fun () -> Array.to_list (Array.map (fun r -> r.known_epoch) t.replicas))

(* The candidate order for one request: replicas at the best known
   epoch (never one behind it), rotated round-robin; with nothing known
   (-1 everywhere, e.g. all replicas mid-restart) every replica is a
   candidate, so the router degrades to plain failover. *)
let candidates t =
  locked t (fun () ->
      let n = Array.length t.replicas in
      let best =
        Array.fold_left (fun acc r -> max acc r.known_epoch) (-1) t.replicas
      in
      let start = t.rr in
      t.rr <- (t.rr + 1) mod n;
      let order = List.init n (fun i -> (start + i) mod n) in
      List.filter (fun i -> best < 0 || t.replicas.(i).known_epoch = best) order)

let refused_tag = Char.chr 4

let mark_down t i =
  locked t (fun () -> t.replicas.(i).known_epoch <- -1)

let mark_served t i = locked t (fun () -> t.replicas.(i).served <- t.replicas.(i).served + 1)

(* Forward one raw request frame. The payload is never decoded: the
   router adds no trust — bytes go to the replica and the replica's
   reply bytes come back, signatures untouched, so the client's
   verification spans the router unchanged. [conns] caches one
   connection per replica for this client session; one that fails
   other than by a timeout may just be stale (engines close idle
   sessions), so it is redialed once before the replica is marked down. *)
let forward t conns payload =
  let drop_conn i =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns.(i);
    conns.(i) <- None
  in
  let try_replica i =
    let r = t.replicas.(i) in
    let ask fd =
      ignore (Frame_io.write_frame ~timeout:io_timeout fd payload);
      match
        Frame_io.read_frame ~header_timeout:io_timeout ~body_timeout:io_timeout fd
      with
      | Some reply -> reply
      | None -> failwith "Router: replica closed the connection"
    in
    let dial () =
      let fd = Roundtrip.connect ~opts ~host:r.host r.port in
      conns.(i) <- Some fd;
      ask fd
    in
    match conns.(i) with
    | None -> dial ()
    | Some fd -> (
      try ask fd with
      | Frame_io.Timeout -> raise Frame_io.Timeout
      | e when Roundtrip.transient e ->
        drop_conn i;
        dial ())
  in
  let rec go last_refused = function
    | [] -> (
      match last_refused with
      | Some reply -> reply
      | None ->
        let w = Wire.writer () in
        Protocol.encode_reply w (Protocol.Refused "Router: no replica available");
        Wire.contents w)
    | i :: rest -> (
      match try_replica i with
      | reply when String.length reply > 0 && reply.[0] = refused_tag ->
        (* a served refusal (stale epoch, replica-local limit): try the
           next candidate, but keep this reply as the most informative
           answer if everyone refuses *)
        go (Some reply) rest
      | reply ->
        mark_served t i;
        reply
      | exception e when Roundtrip.transient e ->
        drop_conn i;
        mark_down t i;
        Log.info (fun m ->
            m "replica %d down: %s" t.replicas.(i).port (Printexc.to_string e));
        go last_refused rest)
  in
  go None (candidates t)

let session t fd =
  let conns = Array.make (Array.length t.replicas) None in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun i c ->
          Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c;
          conns.(i) <- None)
        conns)
    (fun () ->
      let rec loop () =
        match
          Frame_io.read_frame ~header_timeout:idle_timeout
            ~body_timeout:io_timeout fd
        with
        | None -> ()
        | Some payload ->
          let reply = forward t conns payload in
          ignore (Frame_io.write_frame ~timeout:io_timeout fd reply);
          loop ()
      in
      loop ())

let serve t =
  Listener.serve t.listener ~max_conns ~drain_timeout ~on_shed:ignore
    ~on_error:(fun e -> Log.info (fun m -> m "session dropped: %s" (Printexc.to_string e)))
    (session t);
  Option.iter Thread.join t.poller;
  t.poller <- None

let stop t = Listener.stop t.listener
