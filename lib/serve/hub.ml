module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh

let src = Logs.Src.create "aqv.hub" ~doc:"WAL-shipping replication"

module Log = (val Logs.src_log src : Logs.LOG)

type settings = { heartbeat_interval : float; write_timeout : float }

let default_settings = { heartbeat_interval = 1.0; write_timeout = 5.0 }

(* delta frames kept for catch-up *)
let backlog_cap = 64

(* One follower connection: the epoch its stream has reached, [None]
   until its bootstrap snapshot is written. Its feeder moves it, under
   the hub mutex, once a plan's frames are written. *)
type subscriber = { sid : int; mutable cursor : int option }

(* A shipped delta the hub retains for catch-up: a [Delta_frame] reply,
   already encoded, and the epoch it applies to. The backlog is a
   contiguous chain ending at the hub's epoch by construction: the
   engine ships every delta it applies, in order, and {!reset} empties
   it when a snapshot install breaks the chain. *)
type backlog_entry = { b_base : int; frame : string }

type t = {
  settings : settings;
  index : Ifmh.t Atomic.t; (* the engine's served index, only read here *)
  mu : Mutex.t;
  wake : Condition.t; (* ship, reset, a heartbeat and stop wake every feeder *)
  mutable backlog : backlog_entry list; (* oldest first *)
  mutable epoch : int; (* the epoch the hub's stream has reached *)
  mutable beats : int; (* heartbeats so far *)
  mutable subscribers : subscriber list;
  mutable next_sid : int;
  mutable stopped : bool;
  mutable heartbeat : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let encode_reply reply =
  let w = Wire.writer () in
  Protocol.encode_reply w reply;
  Wire.contents w

let hello index = encode_reply (Protocol.Hello { epoch = Ifmh.epoch index })

(* Heartbeat thread: wakes every feeder once per interval; an idle one
   writes a [Hello], so followers can detect a dead primary by read
   timeout and observe their lag. *)
let heartbeat_loop t =
  let rec sleep remaining =
    if remaining > 0. && not (locked t (fun () -> t.stopped)) then begin
      Thread.delay (Float.min 0.05 remaining);
      sleep (remaining -. 0.05)
    end
  in
  let rec loop () =
    sleep t.settings.heartbeat_interval;
    let live =
      locked t (fun () ->
          t.beats <- t.beats + 1;
          Condition.broadcast t.wake;
          not t.stopped)
    in
    if live then loop ()
  in
  loop ()

let create settings index =
  let t =
    { settings; index; mu = Mutex.create (); wake = Condition.create (); backlog = [];
      epoch = Ifmh.epoch (Atomic.get index); beats = 0; subscribers = []; next_sid = 0;
      stopped = false; heartbeat = None }
  in
  t.heartbeat <- Some (Thread.create heartbeat_loop t);
  t

(* Called by the engine under its mutation lock, strictly after the
   delta's WAL fsync and the swap (durable-before-ship). Never blocks
   on a subscriber: the socket writes happen in the feeders. *)
let ship t ~base_epoch delta =
  let frame = encode_reply (Protocol.Delta_frame { base_epoch; delta }) in
  locked t (fun () ->
      let backlog = t.backlog @ [ { b_base = base_epoch; frame } ] in
      let overflow = List.length backlog - backlog_cap in
      t.backlog <- List.filteri (fun i _ -> i >= overflow) backlog;
      t.epoch <- Ifmh.delta_epoch delta;
      Condition.broadcast t.wake)

let reset t =
  locked t (fun () ->
      t.backlog <- [];
      t.epoch <- Ifmh.epoch (Atomic.get t.index);
      Condition.broadcast t.wake)

let behind t = function Some c -> c < t.epoch | None -> true

let lag t =
  locked t (fun () ->
      List.fold_left
        (fun acc sub ->
          acc + match sub.cursor with Some c -> max 0 (t.epoch - c) | None -> 1)
        0 t.subscribers)

(* Catch-up plan for a stream at [cursor] against the served [index]
   (hub mutex held), and the epoch the stream reaches once it is
   written: nothing when the stream is not behind, the backlog suffix
   starting exactly at [cursor] if the chain covers it, else a full
   snapshot. A swap whose delta is not shipped yet puts the snapshot
   one epoch ahead of the hub; that delta is then never sent to this
   stream. *)
let catchup_locked t index cursor =
  let suffix c = List.filter (fun entry -> entry.b_base >= c) t.backlog in
  match cursor with
  | Some c when c >= t.epoch -> ([], cursor)
  | Some c when (match suffix c with first :: _ -> first.b_base = c | [] -> false) ->
    (List.map (fun entry -> entry.frame) (suffix c), Some t.epoch)
  | _ ->
    let w = Wire.writer () in
    Ifmh.save w index;
    ( [ encode_reply (Protocol.Snapshot_frame { index = Wire.contents w }) ],
      Some (Ifmh.epoch index) )

(* Feeder: runs in the engine session thread that accepted the
   [Subscribe], so the fd stays owned (and eventually closed) there.
   Writes a plan outside the lock, moves the cursor, then sleeps on
   the hub's condition until the stream is behind, a heartbeat is due
   or the hub stops; a heartbeat alone gets a [Hello]. A write failure
   or timeout drops the subscriber. *)
let feed t sub fd first =
  let rec loop (frames, reached, beats) =
    List.iter
      (fun frame ->
        ignore (Frame_io.write_frame ~timeout:t.settings.write_timeout fd frame))
      frames;
    let next =
      locked t (fun () ->
          sub.cursor <- reached;
          while not t.stopped && not (behind t sub.cursor) && t.beats = beats do
            Condition.wait t.wake t.mu
          done;
          if t.stopped then None
          else
            let index = Atomic.get t.index in
            let frames, reached = catchup_locked t index sub.cursor in
            Some ((if frames = [] then [ hello index ] else frames), reached, t.beats))
    in
    match next with Some step -> loop step | None -> ()
  in
  try loop first
  with Frame_io.Timeout | Unix.Unix_error _ ->
    Log.info (fun m -> m "subscriber %d dropped: write failed" sub.sid)

let subscribe t fd ~from_epoch =
  let registered =
    locked t (fun () ->
        if t.stopped then None
        else begin
          let sub = { sid = t.next_sid; cursor = from_epoch } in
          t.next_sid <- t.next_sid + 1;
          t.subscribers <- sub :: t.subscribers;
          (* one read of the served index for the Hello and the plan *)
          let index = Atomic.get t.index in
          let frames, reached = catchup_locked t index from_epoch in
          Some (sub, (hello index :: frames, reached, t.beats))
        end)
  in
  match registered with
  | None -> ()
  | Some (sub, first) ->
    Log.info (fun m ->
        m "subscriber %d: from_epoch=%s" sub.sid
          (match from_epoch with Some e -> string_of_int e | None -> "bootstrap"));
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () -> t.subscribers <- List.filter (fun s -> s != sub) t.subscribers))
      (fun () -> feed t sub fd first)

let stop t =
  locked t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.wake);
  Option.iter Thread.join t.heartbeat;
  t.heartbeat <- None
