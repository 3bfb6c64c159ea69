(** Thread-safe observability counters for the serving runtime.

    One {!t} per {!Engine.t}: one atomic integer per {!counter} and a
    latency histogram (integer microseconds, {!Aqv_util.Histogram})
    behind the only lock. Exported over the wire as the flat
    [(key, value)] list carried by [Protocol.Stats], and as the
    one-line log the engine writes on stop. *)

type t

type counter =
  | Req_query
  | Req_rank
  | Req_count
  | Req_stats
  | Req_republish
  | Req_subscribe
  | Req_malformed  (** requests by type; a malformed one is refused *)
  | Replies_refused
  | Bytes_in
  | Bytes_out  (** frame bytes, headers included *)
  | Cache_hits
  | Cache_misses
  | Conns_accepted
  | Conns_refused  (** shed at the [max_conns] limit *)
  | Sessions_dropped
      (** ended by timeout, transport error or malformed framing (the
          cause is logged separately) *)
  | Index_swaps  (** a republish or snapshot install swapped in a new epoch *)
  | Log_appends  (** deltas fsync'd to the write-ahead log before the ack *)
  | Recoveries
  | Torn_tail_truncations
  | Frames_coalesced
      (** recovery from a durable store at startup: whether a partial
          trailing log frame was truncated, and how many log frames were
          folded into the one recovery rebuild *)
  | Compactions  (** the store rewrote its snapshot and reset the log *)
  | Epoch
      (** gauge: the epoch being served, so routers and operators read a
          replica's position from [Get_stats] without a query *)
  | Followers_connected  (** gauge: replication subscribers *)
  | Deltas_shipped  (** durably-acked deltas fanned out to subscribers *)
  | Follower_lag_frames
      (** gauge: frames shipped but not yet written to a follower's
          socket, refreshed on every ship and heartbeat *)

val create : unit -> t
val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val set : t -> counter -> int -> unit
val observe_latency_us : t -> int -> unit

val to_assoc : t -> (string * int) list
(** Every counter under its snake-case name ([Req_query] is
    ["req_query"], [Replies_refused] ["replies_refused"]), in the order
    declared above; then the latency histogram as [latency_us_count],
    [latency_us_max], [latency_us_p50/p90/p99] and one
    [latency_us_le_<bound>] entry per non-empty bucket. *)

val pp : Format.formatter -> t -> unit
(** One-line summary for the engine's stop log. *)
