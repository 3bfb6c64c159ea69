(** Replica-side replication: tail a primary's delta stream into a
    local engine.

    The follower owns one background thread that connects to the
    primary, sends [Protocol.Subscribe { from_epoch = Some e }] for its
    engine's current epoch, and replays what comes back through the
    engine's own mutation path — {!Aqv_serve.Engine.republish} for
    delta frames (WAL append + fsync before the swap, exactly like a
    primary republish, so a follower is crash-recoverable the same
    way), {!Aqv_serve.Engine.install_snapshot} for full-state frames.
    Byte-identity at every epoch follows from the apply == rebuild
    invariant: both ends replay the same deltas through the same code.

    Any stream problem — EOF, read timeout (missed heartbeats), an
    epoch gap, a frame that fails to apply — drops the connection and
    re-subscribes from the follower's durable epoch after a short
    backoff. Stale frames (epochs at or below the follower's) are
    skipped, not errors. *)

type t

val start : ?host:Unix.inet_addr -> engine:Aqv_serve.Engine.t -> port:int -> unit -> t
(** Spawn the tailing thread against primary [host]:[port] (default
    127.0.0.1). The wait for the next frame is bounded by 10 s, which
    must exceed the primary's heartbeat interval; a lost stream is
    redialed after 0.1 s. The engine should have
    [accept_republish = false] so only this stream mutates it. *)

val stop : t -> unit
(** Shut the live connection down, stop the thread, join it. *)

val bootstrap : ?host:Unix.inet_addr -> port:int -> unit -> Aqv.Ifmh.t
(** One-shot full-state fetch for a follower with no local store:
    subscribe with [from_epoch = None], return the snapshot the primary
    sends, disconnect. @raise Failure on refusal or a dead primary. *)
