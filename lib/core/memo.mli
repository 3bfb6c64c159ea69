(** Content-addressed rebuild caches.

    Every incremental [Ifmh.apply]/[apply_delta] pays a full structure
    rebuild — the price of the apply == rebuild bit-identity invariant.
    Most of that work is {e pure recomputation of unchanged inputs}: the
    per-pair geometry of the I-tree insertion (function differences,
    the hyperplane's position relative to the domain box, the 1-D
    crossing point) and the per-subdomain FMH-trees. A [Memo.t] carries
    those results from one index version to the next so a rebuild that
    touches [g] of [n] records skips re-deriving the geometry of every
    untouched {e crossing} pair and re-hashing every subdomain whose
    sorted membership did not change. Only crossing pairs are retained
    (see {!Crossings}): non-crossing geometry is a few exact-rational
    operations to recompute, and retaining it would keep the memo's
    footprint Θ(n²).

    {b Invariant (load-bearing):} a memo holds only results of pure
    functions, keyed by their full input content — never tree
    {e structure} (shape, ids, regions), which must be rebuilt from
    scratch every time (the seeded-shuffle invariant). Reuse therefore
    cannot change a single byte of the rebuilt index: a cached apply,
    a cache-cold apply, and a fresh build are byte-identical
    ([test/test_update.ml] enforces it).

    Keying is indirect but exact: pair geometry is a pure function of
    the two ranking functions and the domain box, and a ranking
    function is a pure function of its record, so an entry keyed by
    {e record-id pair} is valid exactly when both records are unchanged
    ([Record.equal]) and the domain is unchanged — the conditions
    {!use} encodes. FMH-trees are keyed by the id {e sequence} of the
    sorted list; on a hit with [g] differing record digests the cached
    persistent tree is patched with [g] [Mht.set] calls (O(g log n)
    hashes) instead of ~2n leaf-pair hashes — sound because an
    [Mht.t]'s shape is a deterministic function of its leaf count and
    every node hash is a pure function of leaf content.

    Lookups are read-only and may run under {!Aqv_par.Pool} tasks
    (they tick only {!Aqv_util.Metrics}, which is [Atomic.t]-backed);
    registration mutates the new index's memo and must stay on the
    sequential path. *)

type t

val create : Aqv_num.Domain.t -> t
(** An empty memo for indexes over [domain]. *)

val compatible : t -> Aqv_num.Domain.t -> bool
(** Whether entries of this memo may be consulted for a rebuild over
    [domain] (the domains must be equal — they always are within one
    index lineage, but reuse is gated, not assumed). *)

(** A rebuild's view: the new index's memo being populated ([cur]),
    optionally the previous index's memo to carry results over from
    ([prev]), the record id at each function position of the {e new}
    table, and which positions hold records that differ from the
    previous table (changed, inserted, or of unknown provenance). *)
type use

val use : ?prev:t -> ?changed:(int -> bool) -> ids:int array -> t -> use
(** [use ?prev ?changed ~ids cur]. [changed] defaults to every position
    changed (no carry-over), which is also what a fresh build uses —
    its memo still collects entries for the {e next} rebuild, and 1-D
    sweep lookups share work computed during I-tree insertion. *)

(** {1 Pair geometry} *)

type pair_geom = {
  diff : Aqv_num.Linfun.t;  (** [f_i - f_j] *)
  zero : bool;  (** [diff] identically zero (identical functions) *)
  box : Aqv_num.Region.split option;
      (** position of [diff = 0] relative to the whole domain box;
          [None] iff [zero] *)
  root1 : Aqv_num.Rational.t option;
      (** 1-D only: the crossing point [-b/a]; [None] when the
          difference is constant or the domain is not 1-D *)
}

val compute :
  box:Aqv_num.Region.t -> dim:int -> Aqv_num.Linfun.t -> Aqv_num.Linfun.t -> pair_geom
(** Pure geometry of a function pair against the whole domain box
    ([Region.of_domain]): no cache, no counters, safe anywhere —
    including inside {!Aqv_par.Pool} tasks. *)

val find_geom : use -> i:int -> j:int -> pair_geom option
(** Carry-over for the pair at positions [(i, j)], [i < j]: the
    previous index's result, valid exactly when both records are
    unchanged. Read-only (safe inside pool tasks); ticks
    [memo_pair_hits] on a carry, [memo_pair_misses] otherwise — the
    crossing enumerator consults each pair it gives a geometry record
    exactly once per build (the K crossing pairs in 1-D, all n(n-1)/2
    in d >= 2), so totals are one tick per such pair regardless of
    chunking or pool size. *)

val register_geom : use -> i:int -> j:int -> pair_geom -> unit
(** Retain a pair's geometry in [cur] for the next rebuild. The
    enumerator registers {e crossing pairs only} — retaining the
    non-crossing majority would put the Θ(n²) footprint right back.
    Mutates [cur]: call only from the sequential path. *)

(** {1 Subdomain FMH snapshots} *)

val fmh_key : use -> order:int array -> string
(** Content key of a sorted list: the record ids in sorted order
    ([order] holds table positions). The digests are {e not} part of
    the key — they are diffed on lookup so a stale digest patches
    instead of missing. *)

val find_fmh : use -> key:string -> rdig:string array -> order:int array ->
  Aqv_merkle.Mht.t option
(** The previous index's FMH-tree for this id sequence, patched with
    [Mht.set] wherever a record digest changed — byte-identical to
    hashing the list from scratch. Ticks [memo_fmh_hits]/[_misses].
    Read-only: safe inside pool tasks. *)

val add_fmh : use -> key:string -> rdig:string array -> order:int array ->
  Aqv_merkle.Mht.t -> unit
(** Record a built (or patched) tree in [cur] for the next rebuild.
    Mutates [cur]: call only from the sequential path. *)
