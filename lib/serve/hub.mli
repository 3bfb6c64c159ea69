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

    Catch-up: a follower subscribing at epoch [e] gets [Hello] plus the
    suffix of a backlog of the last 64 delta frames starting exactly at
    [e] when the chain covers it, otherwise a snapshot of the served
    index. The backlog starts empty when the hub is created.
    Backpressure: a follower whose bounded queue overflows, or whose
    write times out, is dropped, never allowed to stall the engine; it
    re-subscribes from its own durable store. *)

type settings = {
  queue_cap : int;  (** frames queued per subscriber before it is dropped *)
  heartbeat_interval : float;  (** seconds between [Hello]s to an idle subscriber *)
  write_timeout : float;  (** seconds to write one frame *)
}

val default_settings : settings
(** Queue 64, a [Hello] every 1 s, 5 s per write. *)

type t

val create : settings -> Aqv.Ifmh.t Atomic.t -> t
(** A hub over the engine's served-index cell, which it only reads;
    starts the heartbeat thread. *)

val ship : t -> base_epoch:int -> Aqv.Ifmh.delta -> unit
(** Append the delta from [base_epoch] to the backlog and every queue.
    Enqueue only: never blocks on a subscriber. *)

val reset : t -> unit
(** After a snapshot install: empty the backlog, whose chain no longer
    reaches the served epoch, and drop every subscriber; each
    re-subscribes and catches up by a snapshot. *)

val subscribe : t -> Unix.file_descr -> from_epoch:int option -> unit
(** Feed a subscriber from the calling session thread until it is
    dropped or the hub stops. Never closes the fd. *)

val lag : t -> int
(** Frames queued but not yet written, over live subscribers. *)

val stop : t -> unit
(** Release every feeder and stop the heartbeat thread. *)
