(** The IFMH-tree: the paper's verification data structure.

    Combines the I-tree over function intersections (made an IMH-tree by
    Merkle-hashing every node) with one FMH-tree per subdomain over the
    sorted function list. Two signing schemes (paper §3.1, step 4):

    - {e one-signature}: only the IMH root hash is signed; verification
      objects carry the IMH search path.
    - {e multi-signature}: each subdomain node is signed over the digest
      of its inequality set, the domain, and its FMH root; verification
      objects carry the inequality set.

    Hash rules (all SHA-256, with domain-separation tags):
    - leaf node: the root of the subdomain's FMH-tree;
    - internal node: [H(tag | H(r_i) | H(r_j) | h_above | h_below)].
      Binding the intersecting pair into the node hash is a deliberate
      hardening over the paper's [H(h_a | h_b)] — without it a malicious
      server could reroute searches along a correctly-hashed but wrong
      path (see DESIGN.md). *)

type scheme = One_signature | Multi_signature

val scheme_name : scheme -> string

type t

val build :
  ?seed:int64 ->
  ?epoch:int ->
  ?pool:Aqv_par.Pool.pool ->
  scheme:scheme ->
  Aqv_db.Table.t ->
  Aqv_crypto.Signer.keypair ->
  t
(** Owner-side construction: I-tree insertion, per-subdomain sorting,
    FMH construction, hash propagation, signing. All hash and signature
    operations tick {!Aqv_util.Metrics}. [epoch] (default 0) is a
    freshness counter committed in every signature: clients configured
    with a minimum epoch reject replays of stale database versions.

    [pool] (default {!Aqv_par.Pool.default}, sized by [AQV_DOMAINS])
    parallelizes the embarrassingly parallel stages — record digesting,
    per-subdomain sorting and FMH construction in dimension >= 2,
    per-leaf signing under [Multi_signature], and hash propagation over
    the root's two subtrees. The I-tree build and the 1-D sweep are
    inherently incremental and stay sequential. The result is
    bit-identical to a sequential build ([pool] of size 1): same root
    hash, same signatures, same {!save} bytes — parallelism never
    touches {!Aqv_util.Prng} streams, and every task writes only its
    own slot. *)

(** {1 Incremental maintenance}

    The owner absorbs writes without rebuilding from scratch: {!apply}
    replays a {!Update.change} list, bumps the epoch, and re-signs {e
    only what changed} — under the multi-signature scheme one signature
    per subdomain whose signing digest differs from the previous
    version, under one-signature a single root re-sign (after a full
    hash re-propagation: the asymmetry the paper's update-cost argument
    measures, and the [abl-update] bench quantifies). Record digests of
    untouched records are reused rather than re-hashed.

    The maintained index is {e bit-identical} (root hash, every
    signature, {!save} bytes) to a from-scratch {!build} of the updated
    table at the same epoch — [test/test_update.ml] enforces this
    property for random update sequences, both schemes, 1-D and 2-D,
    sequential and parallel. Signature reuse is sound because signing is
    deterministic, and never crosses a version bump because every
    signing digest commits the epoch and leaf count. Beyond signatures
    and record digests, nothing is carried over: the I-tree, the sorted
    lists and their FMH-trees are rebuilt from scratch. *)

val apply :
  ?epoch:int ->
  ?pool:Aqv_par.Pool.pool ->
  Aqv_crypto.Signer.keypair ->
  Update.change list ->
  t ->
  t
(** Owner-side incremental update. [epoch] defaults to the current epoch
    + 1; passing the {e same} epoch is allowed (e.g. a no-op batch
    re-signs nothing at all), a smaller one is not. [keypair] must be
    the keypair the index was built with — cached signatures and fresh
    ones are mixed.
    @raise Invalid_argument on a malformed change list (see
    {!Update.apply_table}) or a decreasing epoch. *)

type delta
(** What the owner ships to the storage server after an {!apply}: the
    change list, the new epoch, and the new signatures. The server
    replays the changes ({!apply_delta}) instead of re-downloading the
    index; the structure is deterministic, so both sides converge on
    identical bytes. *)

val delta : changes:Update.change list -> t -> delta
(** Package the [changes] that produced [t] (the {e updated} index). *)

val delta_epoch : delta -> int
val delta_changes : delta -> Update.change list

val delta_with_changes : Update.change list -> delta -> delta
(** [d]'s epoch and signatures over a different change list. Coalesced
    recovery folds a whole frame log into one net change list
    ({!Update.compose}, applied frame by frame) and replays it as a
    single delta carrying the {e last} frame's epoch and signatures —
    sound because only the
    final version is served, and its signatures cover the final
    structure regardless of how many rebuilds produced it. *)

val apply_delta : ?pool:Aqv_par.Pool.pool -> delta -> t -> t
(** Server-side replay: rebuild the updated structure and attach the
    shipped signatures by leaf id (unchecked — clients verify). No
    signing digest is computed.
    @raise Failure on a malformed delta, a signature count mismatch, or
    an epoch regression. An epoch regression and a one-signature delta
    without its root signature are refused before any rebuild work. *)

val encode_delta : Aqv_util.Wire.writer -> delta -> unit
val decode_delta : Aqv_util.Wire.reader -> delta
(** @raise Failure on malformed input. *)

val epoch : t -> int

val scheme : t -> scheme
val table : t -> Aqv_db.Table.t
val itree : t -> Itree.t
val sorting : t -> Sorting.t
val root_signature : t -> string
(** @raise Invalid_argument under the multi-signature scheme. *)

val leaf_signature : t -> int -> string
(** @raise Invalid_argument under the one-signature scheme. *)

val root_signing_digest : t -> string
(** The digest the root signature covers: one hash over the IMH root
    hash, computed on each call.
    @raise Invalid_argument under the multi-signature scheme. *)

val leaf_signing_digest : t -> int -> string
(** The digest leaf [id]'s signature covers. Signature reuse in
    {!apply} keys on these; tests compare them directly when running
    under fake signers. An owner's index ({!build}, {!apply}) keeps
    the digests it signed. A server's index ({!load}, {!apply_delta})
    attaches signatures by leaf id and never computes a signing
    digest; the first call there computes all of them in one I-tree
    walk (a few compressions per leaf) and keeps them — the same bytes
    the owner signed.
    @raise Invalid_argument under the one-signature scheme. *)

type leaf_signing_prefix

val leaf_signing_prefix : Aqv_num.Domain.t -> leaf_signing_prefix
(** The domain's part of every leaf signing digest; a verifier makes it once. *)

val leaf_digest_for_signing :
  prefix:leaf_signing_prefix ->
  cons_digests:(string * string * Aqv_num.Halfspace.side) list ->
  fmh_root:string ->
  n_leaves:int ->
  epoch:int ->
  string
(** The multi-signature signing digest for a subdomain, exposed so the
    verifying client computes exactly the same bytes. [cons_digests]
    lists the record digests of each inequality's pair, outermost
    first. Committing [n_leaves] (records + 2 sentinels) prevents the
    server from misreporting the database size. *)

val root_digest_for_signing : root_hash:string -> n_leaves:int -> epoch:int -> string
(** The one-signature signing digest: the IMH root hash bound to the
    FMH leaf count. *)

val inode_digest : rp_digest:string -> rq_digest:string -> above:string -> below:string -> string
(** The IMH internal-node hash, exposed for client-side path folding. *)

val save : Aqv_util.Wire.writer -> t -> unit
(** Serialize the index: the structure is a deterministic function of
    the table and build seed, so only those inputs plus the owner's
    signatures go on the wire. *)

val load : ?pool:Aqv_par.Pool.pool -> Aqv_util.Wire.reader -> t
(** Rebuild a saved index (e.g. on the storage server after the owner's
    upload); the reconstruction parallelizes over [pool] exactly as
    {!build} does. Signatures are attached by leaf id, not checked —
    the verifying clients check them — and no signing digest is
    computed. @raise Failure on malformed input; a one-signature image
    without its root signature is refused before the rebuild. *)

type build_stats = {
  subdomains : int;  (** I-tree leaves *)
  imh_nodes : int;  (** total I-tree nodes *)
  intersections : int;  (** function pairs crossing the domain *)
  signatures : int;  (** signatures the owner created *)
  logical_size_bytes : int;
      (** storage size under the paper's model (one full FMH-tree per
          subdomain, no structural sharing) *)
}

val stats : t -> build_stats
