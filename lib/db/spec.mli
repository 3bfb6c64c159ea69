(** Declarative workload specifications and SLO gates.

    A spec is a checked-in JSON file ([workloads/*.json]) describing a
    traffic model — dataset size, query mix, zipfian popularity over a
    bounded hot set of weight vectors, an open-loop republish rate —
    plus the service-level objectives the run must meet. The harness
    ({!Workload.Trace} + [aqv_net workload]) turns a spec into a
    bit-reproducible query trace, measures it against a live serving
    rig, and {!evaluate_slo} decides the gate.

    Parsing is strict: unknown fields, unknown query types, and mix
    ratios that do not sum to 1 are typed {!error}s, so a typo in a
    checked-in spec fails loudly instead of silently changing the
    workload. [to_json] emits every field (defaults included), and
    parsing its output reconstructs the same spec — the round-trip
    [test_workload] asserts for every checked-in file. *)

module Json := Aqv_util.Json

type scheme = One | Multi

type mix = { topk : float; range : float; knn : float }
(** Query-type ratios; each in [\[0, 1\]], summing to 1 (within 1e-9). *)

type slo = {
  min_throughput_rps : float option;
  p50_us_max : int option;
  p99_us_max : int option;
  p999_us_max : int option;
  min_post_republish_frag_hit_rate : float option;
      (** Retired with the VO fragment cache it measured: {!validate}
          refuses any [Some _] and {!of_json} reads no such key. The
          field stays only while the benchmark harness builds the
          record. *)
}
(** Declared objectives; every bound is optional but a spec must
    declare at least one. Latency ceilings are integer microseconds,
    compared against the exact-integer {!Aqv_util.Histogram}
    percentiles. *)

type t = {
  name : string;
  seed : int;  (** Fixes the dataset, the hot set, and every trace. *)
  records : int;  (** Dataset size, 1 to 100_000. *)
  dims : int;  (** 1 = univariate lines, >= 2 = scored records. *)
  intercept_range : int;
      (** 1-D only: intercept spread of the line family (default 1000).
          Crossing density — hence index size — scales inversely with
          it: the default keeps the paper's dense family (crossings
          ~ 35% of pairs), while large-record specs raise it so the
          crossing count, and with it construction cost, stays
          proportional to what the streaming front-end classifies,
          not to n². Range bounds and KNN targets in the trace scale
          with it. Ignored when [dims >= 2]. *)
  scheme : scheme;
  clients : int;
  requests_per_client : int;
  hot_set : int;  (** Number of distinct weight vectors queries draw from. *)
  zipf_theta : float;  (** Popularity skew over the hot set; 0 = uniform. *)
  k_max : int;  (** Top-k / KNN draw k uniformly from [\[1, k_max\]]. *)
  mix : mix;
  republishes : int;  (** Owner updates driven during the run. *)
  republish_rate_hz : float;  (** Open-loop schedule; > 0 when republishes > 0. *)
  replicas : int;  (** 1 = single engine; N > 1 = primary + followers + router. *)
  slo : slo;
}

type error =
  | Json_error of string  (** Malformed JSON. *)
  | Missing_field of string
  | Bad_field of string * string  (** Field name, what is wrong with it. *)
  | Unknown_field of string
  | Unknown_query_type of string  (** Unrecognized key under ["mix"]. *)
  | Mix_not_normalized of float  (** The ratios' actual sum. *)

val error_to_string : error -> string

val validate : t -> (t, error) result
(** Range-check an already-built spec (the parser calls this; the CLI
    re-calls it after command-line overrides). *)

val load : string -> (t, error) result
(** [load path] reads and parses a spec file. I/O failures surface as
    [Json_error]. *)

val to_json : t -> Json.t
(** Full canonical emission: every field present, mix and slo as nested
    objects. [of_json (to_json s) = Ok s] for any valid [s]. *)

(** {1 SLO gate} *)

type measured = {
  throughput_rps : float;
  p50_us : int;
  p99_us : int;
  p999_us : int;
}
(** The numbers a run produced, decoupled from how they were measured:
    the gate below is a pure function of this record, so its verdict is
    unit-testable without a clock or a server. *)

type violation = { bound : string; limit : float; actual : float }
(** One broken objective, named by its spec field. *)

val evaluate_slo : slo -> measured -> violation list
(** Pure: no clock, no I/O, deterministic in its arguments. Empty means
    the gate passes. *)
