(** Per-subdomain sorted function lists and their FMH-trees.

    For every I-tree leaf, the records are sorted by score at an
    interior point of the subdomain (ties by record position, making
    the order total even for identical functions), bracketed by the
    [min]/[max] sentinels, and committed in a Merkle tree.

    In dimension 1, construction is a left-to-right sweep: crossing a
    subdomain boundary transposes exactly the records that intersect
    there, so each snapshot costs O(g log n) over its neighbour (for a
    crossing group of size g) thanks to the persistence of
    {!Aqv_util.Pvec} and {!Aqv_merkle.Mht}. The sweep is inherently
    incremental and stays sequential. In higher dimensions each leaf is
    sorted independently at its witness point, so leaves fan out over
    the {!Aqv_par.Pool} — bit-identically to a sequential build.

    Every subdomain keeps its persistent FMH-tree (shared structure,
    O(log n) marginal nodes per subdomain), so a query never rehashes. *)

type leaf_lists = {
  order : int Aqv_util.Pvec.t;
      (** record positions (into the table), ascending by score *)
  fmh : Aqv_merkle.Mht.t;
      (** leaves: [min sentinel; record digests in order; max sentinel] *)
}

type t

val build :
  ?pool:Aqv_par.Pool.pool ->
  ?rdig:string array ->
  ?crossings:Crossings.t ->
  Aqv_db.Table.t ->
  Itree.t ->
  t
(** [pool] (default {!Aqv_par.Pool.default})
    parallelizes the per-leaf work in dimension >= 2. [rdig] supplies
    precomputed record digests (one per record, in table order) so a
    caller that already hashed the records — {!Ifmh.build} does — need
    not pay for it twice; omitted, the digests are computed here.

    [crossings] supplies the crossing enumerator's crossing set: in
    1-D the sweep's boundary events are exactly the crossing pairs
    (each carries its root), so the old private Θ(n²) pair walk is
    gone. Omitted in 1-D, the set is enumerated here (over [pool]) —
    bit-identical either way; dimension >= 2 never needs it.
    @raise Invalid_argument if the table and tree disagree or [rdig]
    has the wrong length. *)

val leaf : t -> int -> leaf_lists
(** Lists for I-tree leaf [id]. *)

val fmh_root : t -> int -> string
(** Root commitment of leaf [id]'s FMH-tree. *)

val record_count : t -> int
val leaf_count : t -> int

val fmh_leaf_count : t -> int
(** Leaves per FMH-tree: [record_count + 2]. *)
