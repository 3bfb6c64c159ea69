(** Exact-integer latency histogram.

    Geometric (power-of-two) buckets over non-negative integers —
    typically microseconds. Everything is integer arithmetic: counts,
    bounds, and percentile ranks are exact, so histograms merge and
    compare bit-for-bit across runs (the same reproducibility contract
    as {!Prng}). Not thread-safe; callers serialize access. *)

type t

val create : unit -> t
(** Empty histogram. Buckets have upper bounds [2^0, 2^1, ...] plus an
    overflow bucket; an observation [v] lands in the first bucket with
    [v <= bound]. *)

val observe : t -> int -> unit
(** Record one value. Negative values clamp to 0. *)

val count : t -> int
(** Total observations. *)

val sum : t -> int
(** Sum of observed values (exact). *)

val max_value : t -> int
(** Largest observed value, 0 if empty. *)

val percentile : t -> int -> int
(** [percentile t p] for [p] in [0, 100]: the upper bound of the bucket
    containing the observation of rank [ceil(p/100 * count)] — an upper
    estimate of the p-th percentile. For the last occupied bucket the
    exact max is returned instead of the bucket bound. 0 if empty.
    Equal to [percentile_permille t (10 * p)].
    @raise Invalid_argument if [p] is outside [0, 100]. *)

val percentile_permille : t -> int -> int
(** [percentile_permille t p] for [p] in [0, 1000]: permille resolution
    for tail percentiles — [percentile_permille t 999] is p99.9. The
    rank is computed in exact integer arithmetic as
    [ceil (p * count / 1000)] (clamped to at least 1), so the result is
    bit-reproducible across runs and never subject to float rounding.
    The returned value is the power-of-two upper bound of the bucket
    holding that rank, except that the last occupied bucket reports the
    exact observed maximum. When nonempty, the result is monotone
    non-decreasing in [p] and bounded by the observations: at least the
    smallest value's bucket bound (hence at least the minimum
    observation) and at most {!max_value}. 0 if empty.
    @raise Invalid_argument if [p] is outside [0, 1000]. *)

val buckets : t -> (int * int) list
(** [(upper_bound, count)] for every non-empty bucket, ascending.
    The overflow bucket reports [max_int] as its bound. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram; arguments unchanged. [merge]
    is total on all pairs: bucket counts, [count] and [sum] add,
    [max_value] takes the max. Up to observable state (counts, sum,
    max, every percentile) it is commutative and associative, and
    merging with an empty histogram is the identity — so per-thread
    histograms can be folded in any order with a bit-identical result,
    the property the bench and workload drivers rely on (and
    [test_util] qchecks). *)

val pp : Format.formatter -> t -> unit
(** One line: count, max, and p50/p90/p99. *)
