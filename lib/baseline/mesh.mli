(** The signature-mesh baseline (Yang, Cai & Hu, ICDE 2016), against
    which the paper evaluates the IFMH-tree.

    The weight domain is partitioned at every pairwise intersection
    point; each subdomain keeps the functions sorted; every pair of
    records consecutive in the sorted list is covered by a signature
    over [H(H(r_u) | H(r_v) | B)] where [B] identifies the span of
    consecutive subdomains on which the pair stays adjacent (merging
    runs is the "mesh" optimization of the original paper). The cells
    and their sorted lists come from the IFMH-tree's own 1-D sweep,
    {!Aqv.Sorting.sweep_1d}, over the crossing set of
    {!Aqv.Crossings.enumerate}. The verification object carries one
    signature per consecutive pair of the answer — the cost the
    IFMH-tree is designed to beat.

    Only the univariate case is implemented (the configuration of the
    paper's simulation section). *)

type t

val build : ?pool:Aqv_par.Pool.pool -> Aqv_db.Table.t -> Aqv_crypto.Signer.keypair -> t
(** Owner-side construction: enumerate the crossings (over [pool],
    ticking [build_crossings]), read each boundary of
    {!Aqv.Sorting.sweep_1d} as adjacency changes, sign each maximal
    run. The sweep is sequential; the Theta(n^2) run signatures are
    signed in parallel over [pool] (default {!Aqv_par.Pool.default}),
    bit-identically to a sequential build.
    @raise Invalid_argument unless the table is 1-D. *)

val apply : Aqv_crypto.Signer.keypair -> Update.change list -> t -> t
(** Chain-local repair after record-level changes: re-sweep the updated
    arrangement, but create new signatures only for adjacency runs whose
    signing digest (pair record digests + x-span) did not exist in the
    old mesh — untouched chains keep their signatures verbatim. The
    result is bit-identical (same {!fingerprint}) to a fresh {!build} of
    the updated table; [test/test_update.ml] asserts both that and the
    strictly smaller signature count via {!Aqv_util.Metrics}.
    @raise Invalid_argument on a malformed change list (see
    {!Update.apply_table}). *)

val subdomain_count : t -> int
val signature_count : t -> int

val fingerprint : t -> string
(** Canonical SHA-256 over the full mesh (cell bounds and orders, runs
    sorted by pair and span, signatures): two structurally identical
    meshes — e.g. a sequential and a parallel build — have equal
    fingerprints. *)

val count_signatures : Aqv_db.Table.t -> int * int
(** [(signatures, subdomains)] the mesh would need, computed by the
    same enumeration and sweep with no hashing or signing — used to
    produce the paper-scale series of Fig. 5a.
    @raise Invalid_argument unless the table is 1-D. *)

(** {1 Query processing and verification} *)

type link = {
  span : Aqv_num.Rational.t * Aqv_num.Rational.t;
      (** the closed-open x-interval on which this pair is adjacent *)
  signature : string;
}

type vo = {
  cell_bounds : Aqv_num.Rational.t * Aqv_num.Rational.t;
  left : Vo.boundary;
  right : Vo.boundary;
  links : link list;
      (** one per consecutive pair across [left; result...; right] *)
}

type response = { result : Aqv_db.Record.t list; vo : vo }

val answer : t -> Query.t -> response
(** Binary-search subdomain location ({!locate_cell}), then the same
    window semantics as the IFMH server. *)

val locate_cell : t -> Aqv_num.Rational.t -> int
(** O(log S) point location: binary search over the sorted cell
    boundaries (exact rationals; half-open cells, the last cell
    right-closed, so facet ties resolve to the cell on the right).
    Every boundary probe ticks the mesh-cell and location sign-test
    counters in {!Aqv_util.Metrics}.
    @raise Invalid_argument left of the domain (points right of it
    clamp to the last cell). *)

val cell_bounds : t -> (Aqv_num.Rational.t * Aqv_num.Rational.t) array
(** Per-cell [(lob, hib)] intervals, left to right — the boundary
    positions the locate functions search. *)

val vo_size_bytes : vo -> int

val verify :
  template:Aqv_db.Template.t ->
  domain:Aqv_num.Domain.t ->
  verify_signature:(string -> string -> bool) ->
  Query.t ->
  response ->
  (unit, Semantics.rejection) result
(** Client-side verification: one signature check per consecutive pair,
    span containment of the query input, then the shared window
    semantics. *)
