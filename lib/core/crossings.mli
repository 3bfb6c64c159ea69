(** Crossing enumeration — the owner-side pair front-end.

    Every structure build needs the function pairs whose hyperplane
    [f_i - f_j = 0] properly crosses the domain box: crossing pairs
    drive the I-tree insertion and (in 1-D) the sweep's boundary
    events; non-crossing pairs are no-ops everywhere. How they are
    found depends on the dimension of the domain, a property of the
    input:

    - {b 1-D: inversion sweep.} Two lines cross strictly inside
      [(lo, hi)] iff they are strictly ordered one way at [lo] and
      strictly the other way at [hi]. The enumerator evaluates every
      function at both endpoints, sorts by (value at [lo], value at
      [hi]) with exact comparisons, and merge-sorts that order by value
      at [hi], emitting a pair whenever an earlier element is strictly
      greater at [hi]. A tie at either endpoint is a zero sign, hence
      no crossing — exactly [Region.classify]'s strict-interior Split —
      and parallel lines never invert. O(n log n + K) for K crossings:
      only crossing pairs ever get a geometry record or a memo lookup.
    - {b d >= 2: chunked probe.} The n(n-1)/2 flat pair index space is
      streamed in bounded chunks — never materialized — each chunk
      classified against the box as pure {!Aqv_par.Pool} tasks,
      retaining only the crossing pairs, so peak memory is
      O(#crossings + chunk) instead of Θ(n²).

    {b Determinism:} the retained list is in canonical lexicographic
    (i, j) order — a pure function of (functions, domain), independent
    of chunk size and pool size (pool results land in index order; memo
    consultation is read-only; per-pair {!Aqv_util.Metrics} ticks are
    count-exact). {!Itree.build} derives its seeded insertion order by
    shuffling {e this} list: non-crossing pairs never touch the tree, so
    the shape depends only on the crossing pairs' relative order, and
    the shuffle's draw count is a pure function of the crossing count.
    Every build path ({!Ifmh.build}, [apply], [apply_delta], [load],
    recovery, replication) enumerates through here, so apply ==
    rebuild, parallel == sequential, cached == cold and recovery ==
    hot-swap all still hold.

    {b Counter laws} (per call, exact): in 1-D, [build_pairs_classified]
    = K, [build_pair_chunks] = 0 and the peak is K; a memo pass looks up
    the K crossing pairs only (fresh: K misses; fully carried: K hits,
    no misses). In d >= 2, [build_pairs_classified] = n(n-1)/2,
    [build_pair_chunks] = ceil(n(n-1)/2 / chunk), every pair is looked
    up once, and the peak is <= crossings + chunk. Either way only
    crossing pairs are registered for the next rebuild — retaining the
    non-crossing majority would reinstate the Θ(n²) footprint. *)

type pair = {
  i : int;
  j : int;  (** positions in the function array, [i < j] *)
  geom : Memo.pair_geom;  (** [geom.box = Some Split] by construction *)
}

type t = {
  pairs : pair array;  (** crossing pairs, lexicographic by [(i, j)] *)
  total : int;
      (** pairs given a geometry record: K (the crossings) in 1-D,
          n(n-1)/2 in d >= 2 *)
  chunk : int;  (** chunk bound used (d >= 2) *)
  chunks : int;  (** chunks processed: 0 in 1-D, ceil(total / chunk) in d >= 2 *)
  peak_live : int;
      (** high-water mark of live pair records: K in 1-D; in d >= 2 the
          max over chunks of (retained so far + chunk length). Either
          way <= crossings + chunk *)
}

val count : t -> int
(** Number of crossing pairs retained. *)

val default_chunk : int
(** 32768: small enough to bound memory, large enough to amortize a
    pool fan-out per chunk. *)

val enumerate :
  ?chunk:int ->
  ?memo:Memo.use ->
  ?pool:Aqv_par.Pool.pool ->
  Aqv_num.Domain.t ->
  Aqv_num.Linfun.t array ->
  t
(** The crossing pairs of [fns] over the domain box. With a
    multi-executor [pool], the d >= 2 chunks and the 1-D geometry
    records are built over it; results are bit-identical either way.
    Ticks [build_pairs_classified] / [build_pair_chunks] /
    [build_crossings] and raises the [build_peak_pairs] high-water mark
    in {!Aqv_util.Metrics} per the laws above — all deterministic, so
    tests and benches assert them exactly.
    @raise Invalid_argument if [chunk < 1]. *)
