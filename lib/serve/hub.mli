(** An engine's replication hub: fan the deltas the engine durably
    applied out to follower connections, in WAL order.

    {!Engine} owns it: the first [Protocol.Subscribe] creates it and
    {!Engine.serve} stops it, so an engine no one subscribes to starts
    no thread and encodes no delta frame. The hub reads the engine's
    served-index cell and keeps no copy, so every [Hello] and snapshot
    frame describes what the engine serves. The engine calls {!ship}
    under its mutation lock after each delta's WAL fsync and swap
    (durable-before-ship), {!reset} after each snapshot install, and
    {!subscribe} from the session that accepted a [Subscribe].

    One stream: the hub keeps its backlog of the last 64 delta frames
    and the epoch its stream has reached, and each subscriber is a
    cursor, the epoch its own stream has reached. A feeder whose cursor
    is behind writes its catch-up plan: the backlog suffix starting
    exactly at the cursor when the chain covers it, otherwise a
    snapshot of the served index; live deltas and catch-up are the same
    path. The backlog starts empty when the hub is created.
    Backpressure: {!ship} never waits on a subscriber, and a follower
    whose write times out is dropped, never allowed to stall the
    engine; it re-subscribes from its own durable store. *)

type settings = {
  heartbeat_interval : float;  (** seconds between [Hello]s to an idle subscriber *)
  write_timeout : float;  (** seconds to write one frame *)
}

val default_settings : settings
(** A [Hello] every 1 s, 5 s per write. *)

type t

val create : settings -> Aqv.Ifmh.t Atomic.t -> t
(** A hub over the engine's served-index cell, which it only reads;
    starts the heartbeat thread. *)

val ship : t -> base_epoch:int -> Aqv.Ifmh.delta -> unit
(** Append the delta from [base_epoch] to the backlog, move the hub's
    epoch to the delta's and wake the feeders. Never blocks on a
    subscriber. *)

val reset : t -> unit
(** After a snapshot install: empty the backlog, whose chain no longer
    reaches the served epoch, and move the hub's epoch to the served
    one. Every attached subscriber stays; at its next wake it is
    behind, and gets a snapshot of the served index. *)

val subscribe : t -> Unix.file_descr -> from_epoch:int option -> unit
(** Feed a subscriber from the calling session thread until it is
    dropped or the hub stops. Never closes the fd. *)

val lag : t -> int
(** Epochs by which live subscribers' streams trail the hub's, summed:
    the deltas not yet written to them (one snapshot may stand for
    many), and 1 for a bootstrap snapshot not yet written. *)

val stop : t -> unit
(** Release every feeder and stop the heartbeat thread. *)
