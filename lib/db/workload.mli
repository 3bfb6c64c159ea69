(** Synthetic workload generation.

    The paper's simulation uses randomly generated databases ranked by
    linear functions (1,000–10,000 records, univariate linear ranking in
    the plots) and random top-k / range / KNN queries. Everything here
    is driven by an explicit {!Aqv_util.Prng.t} so experiments are
    reproducible. *)

val lines_1d :
  ?slope_range:int -> ?intercept_range:int -> n:int -> Aqv_util.Prng.t -> Table.t
(** [n] univariate lines [f(x) = a*x + b] with integer [a] in
    [\[-slope_range, slope_range\]] (default 1000) and [b] in
    [\[0, intercept_range\]] (default 1000), pairwise distinct
    [(a, b)], over the domain [x in \[0, 1\]]. Uses the
    {!Template.affine_1d} template. *)

val scored :
  ?attr_range:int -> n:int -> dims:int -> Aqv_util.Prng.t -> Table.t
(** [n] records with [dims] integer attributes in [\[0, attr_range\]]
    (default 100), scored by {!Template.linear_weights} over the unit
    box — the paper's GPA/Award/Paper-style scenario. Attribute vectors
    are pairwise distinct. *)

val weight_point : Table.t -> Aqv_util.Prng.t -> Aqv_num.Rational.t array
(** A random rational point in the table's domain (denominator 1009, a
    prime, so the point almost never hits an intersection exactly). *)

val scores_at : Table.t -> Aqv_num.Rational.t array -> (int * Aqv_num.Rational.t) array
(** [(position, score)] for every record, sorted ascending by score with
    record id as tie-break: the ground truth that tests and benches
    compare against. *)

(** {1 Declarative traffic models}

    The production workload harness: a {!Spec.t} names a dataset, a
    query mix, zipfian popularity over a bounded hot set of weight
    vectors, and an open-loop republish schedule; {!Trace.generate}
    expands it into the complete per-client operation streams. Every
    draw flows through {!Aqv_util.Prng} streams derived from the spec
    seed, so a seed fixes the full trace bit-for-bit — independent of
    thread scheduling, domain count, and wall clock ([test_db] asserts
    byte-identity across runs, and the CI gate asserts it across
    [AQV_DOMAINS] settings). *)

module Zipf : sig
  type t

  val create : n:int -> theta:float -> t
  (** Popularity weights [1/r^theta] over ranks [1..n]; [theta = 0] is
      uniform.
      @raise Invalid_argument on [n < 1] or negative/non-finite
      [theta]. *)

  val sample : t -> Aqv_util.Prng.t -> int
  (** A rank in [\[0, n)], rank 0 most popular. One [Prng.float] draw,
      then binary search over the cumulative weights — deterministic
      given the stream position. *)
end

val table_of_spec : Spec.t -> Table.t
(** The spec's dataset: {!lines_1d} when [dims = 1], {!scored}
    otherwise, seeded from the spec seed. *)

module Trace : sig
  type op =
    | Op_top_k of { x : Aqv_num.Rational.t array; k : int }
    | Op_range of {
        x : Aqv_num.Rational.t array;
        l : Aqv_num.Rational.t;
        u : Aqv_num.Rational.t;
      }
    | Op_knn of {
        x : Aqv_num.Rational.t array;
        k : int;
        y : Aqv_num.Rational.t;
      }
  (** Mirrors [Aqv.Query.t] without depending on [lib/core] (which
      depends on this library); the CLI maps ops to queries 1:1. *)

  type t = {
    hot : Aqv_num.Rational.t array array;  (** Hot set, by rank. *)
    hot_hits : int array;  (** Realized zipf draw counts, by rank. *)
    per_client : op array array;  (** [per_client.(i)] is client [i]'s stream. *)
    republishes : (int * Aqv_num.Rational.t array) array;
        (** [(record id, new attributes)] per owner update, in order. *)
    sha256_hex : string;  (** Digest of {!to_bytes} — the trace identity. *)
  }

  val generate : Spec.t -> Table.t -> t
  (** Deterministic in [(spec.seed, spec)]: hot set, per-client
      streams, and republish contents each draw from their own derived
      Prng stream. *)

  val op_counts : t -> int * int * int
  (** [(topk, range, knn)] totals across all clients. *)

  val to_json : t -> Aqv_util.Json.t
  (** Deterministic summary: digest, op counts, realized hot-set hit
      counts. Wall-clock-free, so two runs of the same spec must emit
      identical bytes (the CI determinism guard). *)
end

val range_for_result_size :
  Table.t -> x:Aqv_num.Rational.t array -> size:int -> Aqv_num.Rational.t * Aqv_num.Rational.t
(** Query boundaries [(l, u)] such that the range query [l <= f(x) <= u]
    returns exactly [size] records (the lowest-scoring [size] of them,
    offset to the middle of the score list when possible). Used by the
    server-cost and VO-size sweeps (Figs. 6d, 7, 8a).
    @raise Invalid_argument if [size] exceeds the table size. *)
