(** Concurrent, observable serving engine for an IFMH index.

    Runs on a {!Listener}: each admitted client gets its own session
    thread, so one slow or hung client cannot block the others (OCaml
    systhreads interleave at blocking I/O; query handling itself
    serializes on the runtime lock, which is the right trade for this
    CPU-light, I/O-bound protocol). The listener admits [max_conns]
    sessions; past that a client gets an immediate [Refused
    "overloaded"] and a close (load shedding, counted as
    [conns_refused]). On top of it the engine adds:

    - per-connection deadlines — [idle_timeout] to start a frame,
      [read_timeout] mid-frame, 5 s to write a reply;
    - a response cache of 1024 framed replies keyed by
      [(epoch, request bytes)], sound because the index is immutable
      within an epoch, that stores a reply on the second request for it
      and is cleared when full ({!Cache}); a reply it does not store is
      written from the session's writer without a copy;
    - live index updates: an owner [Protocol.Republish] frame replays a
      signed delta and atomically hot-swaps the served index
      ({!republish}), invalidating cached replies for free via the
      epoch in the cache key;
    - observability ({!Stats}): request counters, exact-integer latency
      histogram, bytes in/out, cache and shed counters, served in-band
      via [Protocol.Get_stats];
    - graceful shutdown: {!stop} stops accepting and drains in-flight
      sessions (bounded by [drain_timeout]);
    - optional durability: with a [store], every accepted republish is
      appended and fsync'd to the write-ahead log {e before} the
      [Republished] ack goes out (durable-before-ack) — an append
      failure yields [Refused] and leaves serving state untouched —
      and the store compacts under its policy as the log grows;
    - optional replication: with a [publisher], every durably-acked
      delta is handed to it strictly after the WAL fsync
      (durable-before-ship), and [Protocol.Subscribe] sessions are
      handed over to it wholesale ({!publisher}).

    The engine has no fault-injection hook: tests inject network
    faults with a frame-forwarding proxy that can sit on any link
    (client session, router leg, replication stream). *)

type publisher = {
  subscribe : Unix.file_descr -> from_epoch:int option -> unit;
      (** Runs in the session thread that accepted the [Subscribe]: own
          the connection until the subscriber is dropped, then return.
          The session still closes the fd — never close it here. *)
  ship : base:Aqv.Ifmh.t -> index:Aqv.Ifmh.t -> Aqv.Ifmh.delta -> unit;
      (** Called under [republish_mu] right after the swap, once the
          delta is fsync'd: fan it out to subscriber queues. Must not
          block (enqueue only). *)
  lag : unit -> int;  (** total frames enqueued but not yet written *)
}
(** The engine side of a replication hub ([Aqv_cluster.Hub]); kept
    abstract here so [aqv_serve] does not depend on the cluster
    library. *)

type config = {
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_conns : int;  (** concurrent session limit before shedding *)
  idle_timeout : float;  (** seconds to wait for a request to start; 0. = forever *)
  read_timeout : float;  (** seconds to finish reading a started frame *)
  drain_timeout : float;  (** max seconds {!serve} waits for drain on stop *)
  store : Aqv_store.Store.t option;
      (** durable store: republishes are logged before the ack. The
          engine borrows the handle; the caller closes it. *)
  accept_republish : bool;
      (** when [false] (a read replica), wire [Protocol.Republish] is
          [Refused] — mutation arrives only through the replication
          stream via {!republish} *)
  publisher : publisher option;
      (** replication hub; [None] refuses [Protocol.Subscribe] *)
}

val default_config : config
(** Port 7464, 64 connections, 10 s idle, 5 s read, 5 s drain, no
    store, republish accepted, no publisher. *)

type t

val create : config -> Aqv.Ifmh.t -> t
(** Binds and listens immediately (so {!port} is known before {!serve}
    runs), through {!Listener.create}, which also ignores SIGPIPE
    process-wide. @raise Unix.Unix_error if the port is taken. *)

val port : t -> int
(** The actually bound port (resolves [port = 0]). *)

val stats : t -> Stats.t

val index : t -> Aqv.Ifmh.t
(** The index currently being served: a snapshot, replaced atomically
    by {!republish} and {!install_snapshot}. *)

val republish : t -> Aqv.Ifmh.delta -> (int, string) result
(** The single mutation path, shared by wire [Protocol.Republish] and a
    follower replaying its replication stream: under the republish
    lock, [apply_delta] → WAL append+fsync → atomic swap → ship to
    the publisher. [Ok epoch'] only once all of that happened
    (durable-before-ack and durable-before-ship); any failure is
    [Error] with serving state untouched. *)

val install_snapshot : t -> Aqv.Ifmh.t -> (int, string) result
(** Full-state install (a follower bootstrapping from
    [Protocol.Snapshot_frame]): the new index must strictly advance the
    epoch and is made durable — [Aqv_store.Store.compact]: snapshot
    rewrite + log reset — {e before} it is served. *)

val serve : t -> unit
(** {!Listener.serve} with [max_conns] and [drain_timeout]; blocks
    until {!stop}, then drains, closes the listening socket, and waits
    for a running background compaction. Per-session failures are
    logged (src ["aqv.serve"]) and counted as [sessions_dropped], never
    silently swallowed — and [Out_of_memory], [Stack_overflow], and
    [Assert_failure] are never caught. *)

val stop : t -> unit
(** Idempotent, signal-safe: {!Listener.stop}, which wakes the accept
    loop at once. *)
