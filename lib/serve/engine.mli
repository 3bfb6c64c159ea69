(** Concurrent, observable serving engine for an IFMH index.

    Thread-per-connection over a listening TCP socket: each accepted
    client gets its own session thread, so one slow or hung client
    cannot block the others (OCaml systhreads interleave at blocking
    I/O; query handling itself serializes on the runtime lock, which
    is the right trade for this CPU-light, I/O-bound protocol). The
    engine adds what the bare accept loop in [bin/aqv_net.ml] never
    had:

    - a bounded connection count — beyond [max_conns] the client gets
      an immediate [Refused "overloaded"] and a close (load shedding);
    - per-connection deadlines — [idle_timeout] to start a frame,
      [read_timeout] mid-frame, [write_timeout] per reply;
    - an LRU response cache keyed by [(request bytes, epoch)], sound
      because the index is immutable within an epoch;
    - live index updates: an owner [Protocol.Republish] frame replays a
      signed delta and atomically hot-swaps the served index
      ({!swap_index}), invalidating cached replies for free via the
      epoch in the cache key;
    - observability ({!Stats}): request counters, exact-integer latency
      histogram, bytes in/out, cache and shed counters, served in-band
      via [Protocol.Get_stats] and as a periodic log line;
    - graceful shutdown: {!stop} stops accepting and drains in-flight
      sessions (bounded by [drain_timeout]);
    - deterministic fault injection ({!Faults}) on the reply path, for
      robustness tests;
    - optional durability: with a [store], every accepted republish is
      appended and fsync'd to the write-ahead log {e before} the
      [Republished] ack goes out (durable-before-ack) — an append
      failure yields [Refused] and leaves serving state untouched —
      and the store compacts under its policy as the log grows;
    - optional replication: with a [publisher], every durably-acked
      delta is handed to it strictly after the WAL fsync
      (durable-before-ship), and [Protocol.Subscribe] sessions are
      handed over to it wholesale ({!publisher}). *)

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
  backlog : int;  (** listen(2) backlog *)
  idle_timeout : float;  (** seconds to wait for a request to start; 0. = forever *)
  read_timeout : float;  (** seconds to finish reading a started frame *)
  write_timeout : float;  (** seconds to write one reply *)
  cache_capacity : int;  (** LRU entries; 0 disables the response cache *)
  stats_interval : float;  (** seconds between stats log lines; 0. disables *)
  drain_timeout : float;  (** max seconds {!serve} waits for drain on stop *)
  once : bool;  (** serve a single connection, then return *)
  faults : Faults.t option;  (** reply-path fault injection (tests) *)
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
(** Port 7464, 64 connections, 10 s idle, 5 s read, 5 s write, 1024
    cache entries, no periodic log, 5 s drain, no faults, no store,
    republish accepted, no publisher. *)

type t

val create : config -> Aqv.Ifmh.t -> t
(** Binds and listens immediately (so {!port} is known before {!serve}
    runs). @raise Unix.Unix_error if the port is taken. *)

val port : t -> int
(** The actually bound port (resolves [port = 0]). *)

val stats : t -> Stats.t

val index : t -> Aqv.Ifmh.t
(** The index currently being served (a snapshot; see {!swap_index}). *)

val swap_index : t -> Aqv.Ifmh.t -> bool
(** Atomically install a new index for all subsequent requests — the
    serving half of an owner republish ([Protocol.Republish] frames
    arrive here after [Aqv.Ifmh.apply_delta]). Returns [false] (and
    installs nothing) unless the new epoch strictly exceeds the one
    being served; concurrent swaps serialize, so the served epoch is
    monotonic. In-flight requests keep the snapshot they started with.
    The response cache is left alone: keys embed the epoch, so stale
    entries can never be served at the new epoch. *)

val republish : t -> Aqv.Ifmh.delta -> (int, string) result
(** The single mutation path, shared by wire [Protocol.Republish] and a
    follower replaying its replication stream: under the republish
    lock, [apply_delta] → WAL append+fsync → {!swap_index} → ship to
    the publisher. [Ok epoch'] only once all of that happened
    (durable-before-ack and durable-before-ship); any failure is
    [Error] with serving state untouched. *)

val install_snapshot : t -> Aqv.Ifmh.t -> (int, string) result
(** Full-state install (a follower bootstrapping from
    [Protocol.Snapshot_frame]): the new index must strictly advance the
    epoch and is made durable — [Aqv_store.Store.compact]: snapshot
    rewrite + log reset — {e before} it is served. *)

val serve : t -> unit
(** Accept loop; blocks until {!stop}, then drains and closes the
    listening socket. Per-session failures are logged (src
    ["aqv.serve"]) and counted, never silently swallowed — and
    [Out_of_memory], [Stack_overflow], and [Assert_failure] are never
    caught. *)

val stop : t -> unit
(** Idempotent, signal-safe: flips a flag the accept loop polls. *)
