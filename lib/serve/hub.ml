module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol
module Ifmh = Aqv.Ifmh

let src = Logs.Src.create "aqv.hub" ~doc:"WAL-shipping replication"

module Log = (val Logs.src_log src : Logs.LOG)

type settings = { queue_cap : int; heartbeat_interval : float; write_timeout : float }

let default_settings = { queue_cap = 64; heartbeat_interval = 1.0; write_timeout = 5.0 }

(* delta frames kept for catch-up *)
let backlog_cap = 64

(* One follower connection. The queue holds fully encoded reply frames
   (catch-up, deltas, heartbeats) awaiting the feeder's write; [cond]
   pairs with the hub mutex. Once [dropped] the subscriber is dead —
   the feeder notices at its next wake-up and returns the connection to
   the session thread for closing. *)
type subscriber = {
  sid : int;
  queue : string Queue.t;
  cond : Condition.t;
  mutable dropped : bool;
}

(* A shipped delta the hub retains for catch-up: a [Delta_frame] reply,
   already encoded, and the epoch it applies to. The backlog is a
   contiguous chain by construction: the engine ships every delta it
   applies, in order, and {!reset} empties it when a snapshot install
   breaks the chain. *)
type backlog_entry = { b_base : int; frame : string }

type t = {
  settings : settings;
  index : Ifmh.t Atomic.t; (* the engine's served index, only read here *)
  mu : Mutex.t;
  mutable backlog : backlog_entry list; (* oldest first *)
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

(* Enqueue one frame for one subscriber (hub mutex held). Backpressure
   lives here: a follower whose queue is full is not worth stalling the
   republish path for — mark it dropped and let it re-subscribe from
   its own durable store. The signal fires either way so a dropped
   feeder wakes up and exits. *)
let enqueue_locked t sub frame =
  if not sub.dropped then
    if Queue.length sub.queue >= t.settings.queue_cap then begin
      sub.dropped <- true;
      Queue.clear sub.queue;
      Log.info (fun m -> m "subscriber %d dropped: queue full (slow follower)" sub.sid)
    end
    else Queue.push frame sub.queue;
  Condition.signal sub.cond

(* Heartbeat thread: a periodic [Hello] to every idle subscriber, so
   followers can detect a dead primary by read timeout and observe
   their lag. A subscriber with frames still queued gets none: it is
   not idle, and a Hello must not push a queue its catch-up filled
   past [queue_cap] and drop a follower that is not slow. *)
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
          (if not t.stopped then
             let frame = hello (Atomic.get t.index) in
             List.iter
               (fun sub -> if Queue.is_empty sub.queue then enqueue_locked t sub frame)
               t.subscribers);
          not t.stopped)
    in
    if live then loop ()
  in
  loop ()

let create settings index =
  let t =
    { settings; index; mu = Mutex.create (); backlog = []; subscribers = []; next_sid = 0;
      stopped = false; heartbeat = None }
  in
  t.heartbeat <- Some (Thread.create heartbeat_loop t);
  t

(* Called by the engine under its mutation lock, strictly after the
   delta's WAL fsync and the swap (durable-before-ship). Enqueue only —
   the actual socket writes happen in the per-subscriber feeders. *)
let ship t ~base_epoch delta =
  let frame = encode_reply (Protocol.Delta_frame { base_epoch; delta }) in
  locked t (fun () ->
      let backlog = t.backlog @ [ { b_base = base_epoch; frame } ] in
      let overflow = List.length backlog - backlog_cap in
      t.backlog <- List.filteri (fun i _ -> i >= overflow) backlog;
      List.iter (fun sub -> enqueue_locked t sub frame) t.subscribers)

let reset t =
  locked t (fun () ->
      t.backlog <- [];
      List.iter
        (fun sub ->
          sub.dropped <- true;
          Queue.clear sub.queue;
          Condition.signal sub.cond)
        t.subscribers)

let lag t =
  locked t (fun () ->
      List.fold_left
        (fun acc sub -> if sub.dropped then acc else acc + Queue.length sub.queue)
        0 t.subscribers)

(* Catch-up plan for a follower at epoch [e] against the served [index]
   (hub mutex held): the backlog suffix starting exactly at [e] if the
   chain covers it, else a full snapshot. A swap whose delta is not
   shipped yet makes the plan a snapshot, and that delta then reaches
   the follower as a stale frame it skips. *)
let catchup_locked t index from_epoch =
  let snapshot () =
    let w = Wire.writer () in
    Ifmh.save w index;
    [ encode_reply (Protocol.Snapshot_frame { index = Wire.contents w }) ]
  in
  match from_epoch with
  | Some e when e = Ifmh.epoch index -> []
  | Some e -> (
    match List.filter (fun entry -> entry.b_base >= e) t.backlog with
    | first :: _ as suffix when first.b_base = e ->
      List.map (fun entry -> entry.frame) suffix
    | _ -> snapshot ())
  | None -> snapshot ()

(* Feeder: runs in the engine session thread that accepted the
   [Subscribe], so the fd stays owned (and eventually closed) there.
   Drains the queue and writes outside the lock; any write failure or
   timeout drops the subscriber. *)
let feed t sub fd =
  let rec loop () =
    let frames, finished =
      locked t (fun () ->
          while Queue.is_empty sub.queue && not sub.dropped && not t.stopped do
            Condition.wait sub.cond t.mu
          done;
          let frames = List.of_seq (Queue.to_seq sub.queue) in
          Queue.clear sub.queue;
          (frames, sub.dropped || t.stopped))
    in
    List.iter
      (fun frame ->
        ignore (Frame_io.write_frame ~timeout:t.settings.write_timeout fd frame))
      frames;
    if not finished then loop ()
  in
  try loop ()
  with Frame_io.Timeout | Unix.Unix_error _ ->
    locked t (fun () -> sub.dropped <- true);
    Log.info (fun m -> m "subscriber %d dropped: write failed" sub.sid)

let subscribe t fd ~from_epoch =
  let sub =
    locked t (fun () ->
        if t.stopped then None
        else begin
          let sub =
            { sid = t.next_sid; queue = Queue.create (); cond = Condition.create ();
              dropped = false }
          in
          t.next_sid <- t.next_sid + 1;
          t.subscribers <- sub :: t.subscribers;
          (* one read of the served index for the Hello and the plan *)
          let index = Atomic.get t.index in
          Queue.push (hello index) sub.queue;
          List.iter (fun frame -> Queue.push frame sub.queue) (catchup_locked t index from_epoch);
          Some sub
        end)
  in
  match sub with
  | None -> ()
  | Some sub ->
    Log.info (fun m ->
        m "subscriber %d: from_epoch=%s" sub.sid
          (match from_epoch with Some e -> string_of_int e | None -> "bootstrap"));
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () ->
            t.subscribers <- List.filter (fun s -> s.sid <> sub.sid) t.subscribers))
      (fun () -> feed t sub fd)

let stop t =
  locked t (fun () ->
      t.stopped <- true;
      List.iter (fun sub -> Condition.signal sub.cond) t.subscribers);
  Option.iter Thread.join t.heartbeat;
  t.heartbeat <- None
