(** The Intersection tree (I-tree) of a set of ranking functions.

    Internal nodes record that two functions intersect inside the node's
    region; the two children are the [Above] ([f_i - f_j >= 0]) and
    [Below] sides. Leaves are subdomains on which the functions admit a
    fixed total order. Construction follows the paper's insertion
    algorithm: every intersecting pair is inserted from the root,
    splitting exactly the leaves its hyperplane properly crosses (in
    dimension 1, the same tree is built from the sorted roots; see
    {!build}).

    Nodes carry a mutable hash slot (initially invalid) so {!Ifmh} can
    turn the structure into an IMH-tree by bottom-up propagation. *)

type node = {
  region : Aqv_num.Region.t;
  mutable h : string;  (** "" until set by hash propagation *)
  mutable kind : kind;
}

and kind = Leaf of leaf | Inode of inode

and leaf = {
  mutable id : int;  (** dense leaf index, assigned by [build] *)
  cons : (int * int * Aqv_num.Halfspace.side) list;
      (** the inequalities that carve this subdomain: function-pair
          positions plus the side taken, outermost last *)
}

and inode = {
  i : int;
  j : int;  (** positions of the intersecting pair in the function array *)
  diff : Aqv_num.Linfun.t;  (** [f_i - f_j] *)
  above : node;
  below : node;
}

type t

val build :
  ?seed:int64 ->
  ?order:[ `Shuffled | `Lexicographic ] ->
  ?crossings:Crossings.t ->
  Aqv_num.Domain.t ->
  Aqv_num.Linfun.t array ->
  t
(** Insert all crossing pairs — by default in a seeded random order
    (the insertion order does not change the leaf decomposition, only
    the tree's internal shape/depth; [`Lexicographic] exists for the
    depth ablation). The order is the seeded shuffle of the {e crossing
    pair list} (see {!Crossings} for the determinism argument) — never
    of the full Θ(n²) pair set, which the enumerator never visits.
    Identical functions (zero difference) induce no split.

    In dimension 1 nothing is inserted: the tree is built in O(K) for K
    crossings as the treap of the distinct roots ({!Crossings.t}'s
    [by_root]), each keyed by the insertion rank of its first pair and
    split by that pair, least rank on top. Sequential insertion descends
    by root and stops at an equal root, so it grows exactly this tree —
    the same pair, side, region and constraint list at every node;
    [test/ref/itree_ref.ml] holds the insertion as the oracle. Leaf ids
    number the subdomain intervals left to right.

    [crossings] hands in a pre-enumerated crossing set so one
    enumeration feeds both this insertion and the 1-D sweep
    ({!Ifmh.build_structure} does). Without [crossings], enumeration
    happens here, sequentially. Either way the built tree is
    bit-identical. *)

val root : t -> node
val leaf_count : t -> int
val leaves : t -> node array
(** Leaf nodes indexed by leaf id. *)

val node_count : t -> int
(** Total nodes (internal + leaves). *)

val locate : t -> Aqv_num.Rational.t array -> node list * leaf
(** Search path (root first, internal nodes only) and the leaf whose
    subdomain contains the input, under half-open routing: ties go to
    the [Above] child. Ticks IMH-node counters in
    {!Aqv_util.Metrics}.
    @raise Invalid_argument if the input lies outside the domain. *)

val intersection_count : t -> int
(** Number of function pairs whose intersection crosses the domain
    interior (i.e. pairs that caused at least one split). *)

val max_depth : t -> int
(** Longest root-to-leaf path (edges). The randomized insertion order
    keeps this logarithmic in the number of subdomains in expectation;
    the sorted-insertion ablation bench shows what happens without it. *)

val average_leaf_depth : t -> float
(** Mean depth over all leaves: the expected IMH search cost. *)
