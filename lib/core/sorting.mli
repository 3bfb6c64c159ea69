(** Per-subdomain sorted function lists, each one FMH-tree.

    For every I-tree leaf, the records are sorted by score at an
    interior point of the subdomain (ties by record position, making
    the order total even for identical functions), bracketed by the
    [min]/[max] sentinels, and committed in a Merkle tree whose leaves
    also hold the list, one table position each (see {!leaf}).

    In dimension 1, construction consumes {!sweep_1d}, the one
    left-to-right sweep of the arrangement: crossing a subdomain
    boundary reorders exactly the records that intersect there, so each
    snapshot costs O(g + log n) over its neighbour (for a crossing
    group of size g) thanks to the persistence of {!Aqv_merkle.Mht}: a
    boundary's moved leaves go to one {!Aqv_merkle.Mht.set_many}, which
    rehashes the union of their root paths once — about log n + 1 node
    hashes for the usual single adjacent swap, against 2 log n for two
    separate updates. The sweep is inherently incremental and stays
    sequential. In higher dimensions each leaf is sorted independently
    at its witness point, so leaves fan out over the {!Aqv_par.Pool} —
    bit-identically to a sequential build.

    Every subdomain keeps its persistent FMH-tree (shared structure,
    O(log n) marginal nodes per subdomain), so a query never rehashes. *)

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

    [crossings] supplies the crossing enumerator's crossing set, which
    {!sweep_1d} consumes in 1-D. Omitted in 1-D, the set is enumerated
    here (over [pool]) — bit-identical either way; dimension >= 2
    never needs it.
    @raise Invalid_argument if the table and tree disagree (in 1-D,
    leaf [c] must span sweep cell [c]) or [rdig] has the wrong
    length. *)

val leaf : t -> int -> int Aqv_merkle.Mht.t
(** I-tree leaf [id]'s FMH-tree: leaf [p] (1 to [n]) commits and holds
    the position of the record ranked [p - 1]; the sentinels hold -1. *)

val fmh_root : t -> int -> string
(** Root commitment of leaf [id]'s FMH-tree. *)

val leaf_count : t -> int

val sweep_1d :
  Crossings.t ->
  Aqv_db.Table.t ->
  (int -> lob:Aqv_num.Rational.t -> hib:Aqv_num.Rational.t -> int array ->
   moved:int list -> unit) ->
  int
(** [sweep_1d crossings table on_cell] walks the 1-D arrangement left
    to right and returns the number of cells. The cell boundaries are
    the distinct roots of [crossings], the table's crossing set from
    {!Crossings.enumerate}: the sweep walks its root groups
    ([by_root], already sorted — the sweep sorts no events) and moves
    each group's records at its boundary. For each cell [c], in order, it calls
    [on_cell c ~lob ~hib order ~moved]: the cell is the half-open
    interval from [lob] to [hib] (the last one closed); [order] holds
    the record positions sorted by score at its midpoint, ties by
    position; [moved] lists, ascending, the positions whose record
    differs from cell [c - 1]'s (none for cell 0). [order] is lent for
    the call only: do not write it, and copy what outlives the call. At
    a boundary only the records crossing there move: each group meeting
    at one point re-sorts within its contiguous block. This is the one
    1-D sweep: {!build} and the signature-mesh baseline both consume it.
    @raise Invalid_argument if [crossings] does not match the table's
    1-D roots. *)
