module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh
module Frame_io = Aqv_serve.Frame_io
module Roundtrip = Aqv_serve.Roundtrip
module Engine = Aqv_serve.Engine

let src = Logs.Src.create "aqv.cluster.follower" ~doc:"replication follower"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Engine.t;
  host : Unix.inet_addr;
  port : int;
  mu : Mutex.t;
  mutable fd : Unix.file_descr option; (* guarded by [mu] *)
  mutable stopped : bool; (* guarded by [mu] *)
  mutable thread : Thread.t option;
}

(* The wait for the next frame on a replication stream, the bootstrap's
   included: must exceed the primary's heartbeat interval. *)
let read_timeout = 10.

(* The delay before redialing a lost stream. *)
let reconnect_backoff = 0.1

(* Bound on writing the Subscribe and on reading a frame body: the
   default roundtrip read timeout. *)
let io_timeout = Roundtrip.default_opts.Roundtrip.read_timeout

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stopped t = locked t (fun () -> t.stopped)
let epoch t = Ifmh.epoch (Engine.index t.engine)

let send_subscribe fd ~timeout ~from_epoch =
  let w = Frame_io.writer () in
  Protocol.encode_request w (Protocol.Subscribe { from_epoch });
  ignore (Frame_io.write_writer ~timeout fd w)

(* Read and decode the next frame of a replication stream: [None] at
   EOF, [Error] for an undecodable frame. *)
let next_reply fd =
  match Frame_io.read_frame ~header_timeout:read_timeout ~body_timeout:io_timeout fd with
  | None -> None
  | Some payload -> (
    match Protocol.decode_reply (Wire.reader payload) with
    | exception (Failure msg | Invalid_argument msg) -> Some (Error msg)
    | reply -> Some (Ok reply))

(* Apply one replication frame to the follower's engine. [Error] means
   the stream is unusable from here (a gap, a bad frame): drop the
   connection and re-subscribe from our durable epoch — the hub decides
   between a backlog suffix and a snapshot. Stale frames are skipped,
   not errors: after a snapshot install the stream may replay deltas
   the snapshot already covers. *)
let apply_frame t reply =
  let cur = epoch t in
  match reply with
  | Protocol.Hello _ -> Ok ()
  | Protocol.Delta_frame { base_epoch; delta } ->
    if Ifmh.delta_epoch delta <= cur then Ok () (* stale, already durable here *)
    else if base_epoch <> cur then
      Error
        (Printf.sprintf "stream gap: delta applies to epoch %d, we are at %d"
           base_epoch cur)
    else (
      match Engine.republish t.engine delta with
      | Ok epoch' ->
        Log.debug (fun m -> m "replayed delta: now at epoch %d" epoch');
        Ok ()
      | Error msg -> Error msg)
  | Protocol.Snapshot_frame { index } -> (
    match Ifmh.load (Wire.reader index) with
    | exception (Failure msg | Invalid_argument msg) ->
      Error ("bad snapshot: " ^ msg)
    | index' ->
      if Ifmh.epoch index' <= cur then Ok () (* stale snapshot *)
      else (
        match Engine.install_snapshot t.engine index' with
        | Ok epoch' ->
          Log.info (fun m -> m "snapshot installed: now at epoch %d" epoch');
          Ok ()
        | Error msg -> Error msg))
  | Protocol.Refused msg -> Error ("primary refused subscription: " ^ msg)
  | _ -> Error "protocol violation: unexpected reply on replication stream"

(* One connection's lifetime: subscribe from our current durable epoch,
   then tail frames until EOF, a read timeout (dead primary — the
   heartbeat should have arrived), or an unusable frame. *)
let tail_once t =
  let fd = Roundtrip.connect ~host:t.host t.port in
  let abandoned = locked t (fun () ->
      if t.stopped then true else begin t.fd <- Some fd; false end)
  in
  if abandoned then (try Unix.close fd with Unix.Unix_error _ -> ())
  else
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () -> t.fd <- None);
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        send_subscribe fd ~timeout:io_timeout ~from_epoch:(Some (epoch t));
        let rec loop () =
          match next_reply fd with
          | None -> Log.info (fun m -> m "primary closed the stream")
          | Some (Error msg) -> Log.warn (fun m -> m "bad replication frame: %s" msg)
          | Some (Ok reply) -> (
            match apply_frame t reply with
            | Ok () -> loop ()
            | Error msg -> Log.warn (fun m -> m "dropping stream: %s" msg))
        in
        loop ())

let run t =
  let rec loop () =
    if not (stopped t) then begin
      (try tail_once t with
      | (Out_of_memory | Stack_overflow | Assert_failure _) as e -> raise e
      | e ->
        if not (stopped t) then
          Log.info (fun m -> m "replication link down: %s" (Printexc.to_string e)));
      if not (stopped t) then begin
        Thread.delay reconnect_backoff;
        loop ()
      end
    end
  in
  loop ()

let start ?(host = Unix.inet_addr_loopback) ~engine ~port () =
  let t =
    { engine; host; port; mu = Mutex.create (); fd = None; stopped = false; thread = None }
  in
  t.thread <- Some (Thread.create run t);
  t

let stop t =
  (* Shutting the live socket down wakes a blocked read with EOF. Only
     [tail_once] closes it: a close here would race that close, and the
     second one could hit a number another thread has reused meanwhile.
     [t.fd] is cleared under [mu] before that close, so holding [mu]
     here keeps the number live while we shut it down. *)
  locked t (fun () ->
      t.stopped <- true;
      Option.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.fd);
  Option.iter Thread.join t.thread;
  t.thread <- None

(* Bootstrap for a follower with no local state: one throwaway
   subscription that asks for a full snapshot, loads it, disconnects.
   The caller publishes it to a fresh store and starts a real engine
   (and then a {!start}ed tail) from there. *)
let bootstrap ?(host = Unix.inet_addr_loopback) ~port () =
  Roundtrip.with_connection ~host ~port (fun fd ->
      send_subscribe fd ~timeout:io_timeout ~from_epoch:None;
      let rec await () =
        match next_reply fd with
        | None -> failwith "Follower: primary closed before sending a snapshot"
        | Some (Error msg) -> failwith ("Follower: bad bootstrap frame: " ^ msg)
        | Some (Ok (Protocol.Snapshot_frame { index })) -> Ifmh.load (Wire.reader index)
        | Some (Ok (Protocol.Hello _)) -> await ()
        | Some (Ok (Protocol.Refused msg)) -> failwith ("Follower: primary refused: " ^ msg)
        | Some (Ok _) -> failwith "Follower: unexpected reply during bootstrap"
      in
      await ())
