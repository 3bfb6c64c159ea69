(** Primary-side replication hub: fan durably-acked deltas out to
    follower connections, in WAL order.

    The hub is the {!Aqv_serve.Engine.publisher} of a primary. The
    engine hands it two things: every durably-acked delta (via [ship],
    called under the republish lock strictly {e after} the WAL fsync —
    durable-before-ship), and every [Protocol.Subscribe] connection
    (via [subscribe], which runs the feeder in the accepting session
    thread, so connection ownership never leaves the engine).

    Catch-up: the hub retains a bounded backlog of encoded delta
    frames. A follower subscribing at epoch [e] gets [Hello] plus the
    backlog suffix starting exactly at [e] when the chain covers it;
    otherwise (bootstrap, or a follower too far behind) a full
    [Snapshot_frame].

    Backpressure: each subscriber has a bounded frame queue. A follower
    that cannot keep up — queue overflow at ship time, or a write
    timeout — is dropped rather than allowed to stall the primary; it
    reconnects and re-subscribes from its own durable store. *)

type t

val create :
  ?queue_cap:int ->
  ?backlog_cap:int ->
  ?heartbeat_interval:float ->
  ?write_timeout:float ->
  initial:Aqv.Ifmh.t ->
  unit ->
  t
(** Starts the heartbeat thread. [queue_cap] (default 64) bounds each
    subscriber's pending-frame queue; [backlog_cap] (default 64) the
    catch-up backlog; [heartbeat_interval] (default 1 s) the [Hello]
    period; [write_timeout] (default 5 s) one frame write. [initial]
    must be the index the engine starts serving. *)

val publisher : t -> Aqv_serve.Engine.publisher
(** The hooks to put in the primary engine's config. *)

val stop : t -> unit
(** Wake and release every feeder, stop the heartbeat thread. Call
    before (or while) stopping the engine, so feeder sessions drain. *)
