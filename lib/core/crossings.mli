(** Crossing enumeration — the owner-side pair front-end.

    Every structure build needs the function pairs whose hyperplane
    [f_i - f_j = 0] properly crosses the domain box: crossing pairs
    drive the I-tree insertion and (in 1-D) the boundaries of
    {!Sorting.sweep_1d}; non-crossing pairs are no-ops everywhere.

    {b One algorithm for every dimension: antipodal-corner inversions.}
    A linear difference takes its maximum and minimum over a box at an
    antipodal corner pair (c, c̄) — [hi] where its coefficient is
    positive, [lo] where it is negative — so its hyperplane properly
    crosses the box iff it takes strictly opposite signs at some
    antipodal pair. For each of the box's 2^(d-1) antipodal pairs the
    enumerator evaluates every function at both corners, sorts by
    (value at c, value at c̄) with exact comparisons, and merge-sorts
    that order by value at c̄, emitting a pair whenever an earlier
    element is strictly greater at c̄. The union of the emitted pairs,
    sorted and deduplicated, is the crossing set. A tie at either
    corner is a zero sign, hence no crossing — exactly
    [Region.classify]'s strict-interior Split — and parallel functions
    never invert. In 1-D there is one pair, (lo, hi): the classic
    O(n log n + K) inversion sweep. Only crossing pairs ever get a pair
    record.

    {b Determinism:} the list is in canonical lexicographic (i, j)
    order — a pure function of (functions, domain), independent of pool
    size (pool results land in index order). {!Itree.build} derives its
    seeded insertion order by shuffling {e this} list: non-crossing
    pairs never touch the tree, so the shape depends only on the
    crossing pairs' relative order, and the shuffle's draw count is a
    pure function of the crossing count. Every build path
    ({!Ifmh.build}, [apply], [apply_delta], [load], recovery,
    replication, and the signature-mesh baseline's [Mesh.build],
    [Mesh.apply] and [Mesh.count_signatures]) enumerates through here,
    so apply == rebuild, parallel == sequential and recovery ==
    hot-swap all still hold.

    {b Counter law} (per call, exact, any dimension, any pool):
    [build_crossings] ticks by the number of crossing pairs. *)

type pair = {
  i : int;
  j : int;  (** positions in the function array, [i < j] *)
  diff : Aqv_num.Linfun.t;  (** [f_i - f_j]; never identically zero *)
  root : Aqv_num.Rational.t option;
      (** 1-D only: the crossing point [-b/a], strictly inside the
          domain; [None] in d >= 2 *)
}

type t = {
  pairs : pair array;  (** crossing pairs, lexicographic by [(i, j)] *)
  total : int;  (** the crossing count, = {!count} *)
  by_root : int array array;
      (** 1-D only, empty in d >= 2: every index into [pairs], sorted
          by root with ties by index, cut into one group per distinct
          root — the cell boundaries of {!Sorting.sweep_1d}, left to
          right, and the keys of the 1-D {!Itree.build}. Deterministic
          like [pairs]: a stable sort of the lexicographic indices by
          exact root, so the order is a pure function of (functions,
          domain) and never of the pool. *)
}

val count : t -> int
(** Number of crossing pairs. *)

val enumerate :
  ?pool:Aqv_par.Pool.pool -> Aqv_num.Domain.t -> Aqv_num.Linfun.t array -> t
(** The crossing pairs of [fns] over the domain box. With a
    multi-executor [pool], the pair records are built over it; results
    are bit-identical either way. Ticks [build_crossings] in
    {!Aqv_util.Metrics} per the law above. *)
