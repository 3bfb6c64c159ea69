(** Thread-safe observability counters for the serving runtime.

    One {!t} per {!Engine.t}: request counts by type, a latency
    histogram (integer microseconds, {!Aqv_util.Histogram}), bytes
    in/out, cache and connection counters, and fault-injection tallies.
    Exported over the wire as the flat [(key, value)] list carried by
    [Protocol.Stats], and as a one-line periodic log. *)

type t

type request_kind =
  [ `Query | `Rank | `Count | `Stats | `Republish | `Subscribe | `Malformed ]
type fault_kind = [ `Delay | `Truncate | `Drop ]

val create : unit -> t

val on_request : t -> request_kind -> unit
val on_refused : t -> unit
val observe_latency_us : t -> int -> unit
val add_bytes_in : t -> int -> unit
val add_bytes_out : t -> int -> unit
val cache_hit : t -> unit
val cache_miss : t -> unit
val conn_accepted : t -> unit
val conn_refused : t -> unit
(** Connection shed at the [max_conns] limit. *)

val session_dropped : t -> unit
(** Session terminated by timeout, transport error, or malformed
    framing (the cause is logged separately). *)

val index_swapped : t -> unit
(** A republish installed a new index epoch ({!Engine.swap_index}). *)

val log_appended : t -> unit
(** A delta frame was fsync'd to the write-ahead log before the ack. *)

val recovered : t -> torn_tail:bool -> coalesced:int -> unit
(** The serving index was recovered from a durable store at startup;
    [torn_tail] records whether a partial trailing log frame had to be
    truncated, [coalesced] how many log frames were folded into the
    single recovery rebuild. *)

val compacted : t -> unit
(** The store rewrote its snapshot and reset the log. *)

val set_epoch : t -> int -> unit
(** Gauge: the epoch of the index currently being served. Exported in
    {!to_assoc} as ["epoch"], so routers and operators can read a
    replica's position from [Get_stats] without a query round-trip. *)

val follower_connected : t -> unit
val follower_disconnected : t -> unit
(** Gauge pair: a replication subscriber registered / went away
    (exported as ["followers_connected"]). *)

val delta_shipped : t -> unit
(** A durably-acked delta was fanned out to the subscriber queues. *)

val set_follower_lag : t -> int -> unit
(** Gauge: total frames sitting in subscriber queues, i.e. shipped but
    not yet written to a follower's socket (["follower_lag_frames"]).
    Refreshed on every ship and heartbeat. *)

val on_fault : t -> fault_kind -> unit

val to_assoc : t -> (string * int) list
(** Stable snapshot: every counter, then the latency histogram as
    [latency_us_count], [latency_us_max], [latency_us_p50/p90/p99] and
    one [latency_us_le_<bound>] entry per non-empty bucket. *)

val get : t -> string -> int
(** [get t key] is the current value of one counter from {!to_assoc}
    (0 if absent) — convenience for tests and in-process probes. *)

val pp : Format.formatter -> t -> unit
(** One-line summary for the periodic log. *)
