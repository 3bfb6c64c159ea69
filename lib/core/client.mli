(** Client-side verification of query responses (paper §3.3).

    The client trusts only: the owner's public key, the published
    template, and the published domain. Everything else — records,
    window position, subdomain, order — is recomputed from the response
    and checked against the owner's signature. A response passes iff the
    result is sound (every record original and satisfying the query) and
    complete (no qualifying record missing). *)

type ctx

val make_ctx :
  template:Aqv_db.Template.t ->
  domain:Aqv_num.Domain.t ->
  verify_signature:(string -> string -> bool) ->
  ctx
(** [verify_signature digest signature] is the owner's public-key
    check — typically [keypair.verify] from {!Aqv_crypto.Signer}. *)

val with_min_epoch : ctx -> int -> ctx
(** A context that additionally rejects responses signed for database
    epochs older than the given one (freshness; default 0 accepts
    everything). It shares the digest memo of the given ctx. *)

type rejection = Semantics.rejection =
  | Malformed  (** structurally inconsistent response *)
  | Bad_signature  (** root/subdomain signature does not verify *)
  | Wrong_subdomain
      (** the proven subdomain does not contain the query input *)
  | Order_violation  (** shipped records out of committed score order *)
  | Boundary_violation
      (** a boundary record satisfies the query condition, or a result
          record does not: the window is wrong *)
  | Count_mismatch  (** result size inconsistent with the query *)
  | Outside_domain  (** query input outside the owner's domain *)
  | Stale_epoch  (** the response was signed for an older database
                     version than the client requires *)

val rejection_to_string : rejection -> string

val verify : ctx -> Query.t -> Server.response -> (unit, rejection) result
(** Full verification: FMH range reconstruction, IMH path folding or
    inequality checking, signature verification, and query-semantics
    re-execution. Hash and signature operations tick
    {!Aqv_util.Metrics} — the paper's user-cost metrics (Fig. 7).
    [hash_ops] and [verify_ops] count digests and signature checks
    actually computed: a ctx that already verified replies reuses
    memoized ones and computes fewer, so
    per-query user cost is measured with a fresh {!make_ctx}, whose
    first verification uses no memo. *)

val accepts : ctx -> Query.t -> Server.response -> bool

val check_subdomain_proof :
  ctx ->
  x:Aqv_num.Rational.t array ->
  fmh_root:string ->
  n_leaves:int ->
  epoch:int ->
  Vo.subdomain_proof ->
  signature:string ->
  unit
(** Step 1b of {!verify}, shared with {!Count}: verify that the FMH
    root belongs to the subdomain containing [x] under the owner's
    signature (route re-evaluation or inequality checks included).
    @raise Semantics.Reject on any violation. *)

val window_root :
  ctx ->
  n_leaves:int ->
  window_lo:int ->
  left:Vo.boundary ->
  result:Aqv_db.Record.t list ->
  right:Vo.boundary ->
  fmh_proof:string list ->
  string
(** Step 1a of {!verify}: check that the window and its boundaries fit
    an [n_leaves]-leaf list (sentinels only at its ends) and rebuild the
    FMH root they commit to with the range proof.
    @raise Semantics.Reject [Malformed] on any inconsistency. *)

val boundary_digest : ctx -> Vo.boundary -> string
(** The FMH leaf digest a boundary commits to (record digest or
    sentinel constant). *)

(** {1 Digest memo}

    Each ctx — and every ctx derived from it by {!with_min_epoch} —
    shares a memo of record digests, FMH interior node hashes and owner
    signatures: two fixed arrays of 2{^16} slots and one of 2{^14}, each
    slot an immutable entry holding the whole input its result was
    computed from. A record entry sits at its id's low bits and hits
    only for a record {!Aqv_db.Record.equal} to its own; a node entry
    sits at a slot read off its two child digests (bytes 0–1 of the left
    xor bytes 2–3 of the right), or at the slot beside it, and hits only
    for the same two children. A signature entry sits at a slot read off
    bytes 0–1 of the root it signs (IMH or FMH), or beside it, and hits
    only for the same signature bytes over the same signing inputs: the
    scheme, the root, [n_leaves], the epoch and (multi-signature) each
    constraint's two record digests and side, which with the domain fix
    the signing digest. So a hit answers exactly the question a fresh
    [verify_signature] call would be asked, without hashing it, and a
    reply that changes any signed byte, or the signature, misses and is
    checked afresh; only accepted pairs are held. A hit returns exactly
    what a fresh computation would, so no decision depends on the memo.
    A colliding record replaces the old one; a node or a signature fills
    an empty way of its pair of slots, or else moves the entry at its
    own slot to the other way. A child shorter than a digest skips the
    memo. Only accepted verifications add to it, so it holds
    authenticated data alone. Threads and domains share it without a lock. *)

val with_memo : ctx -> (ctx -> ('a, 'e) result) -> ('a, 'e) result
(** [with_memo ctx f] runs one verification [f] with the memo. A ctx's
    first verification runs memo-free and allocates no slots, so a
    one-shot client hashes and times exactly as the paper's user does.
    Later ones look up what earlier accepted verifications computed,
    and publish what they compute only if [f] returns [Ok]: a rejected
    reply leaves the memo as it was. {!verify} and {!verify_rank} each
    run in one, as does {!Count}; outside it,
    {!window_root}, {!check_subdomain_proof} and {!boundary_digest}
    hash and check signatures afresh. *)

type memo_counters = {
  record_hits : int;
  record_misses : int;
  node_hits : int;
  node_misses : int;
  signature_hits : int;
  signature_misses : int;
}

val memo_counters : ctx -> memo_counters
(** Lookups this ctx's memo has answered since {!make_ctx}, added once
    per verification; a child too short to look up is a node miss. *)

val min_epoch : ctx -> int
val template : ctx -> Aqv_db.Template.t
val domain : ctx -> Aqv_num.Domain.t

val verify_rank :
  ctx ->
  x:Aqv_num.Rational.t array ->
  record_id:int ->
  Server.response ->
  (int, rejection) result
(** Verify a {!Server.rank} response: on success, the certified 0-based
    ascending rank of the record under input [x]. The rank is exactly
    the window position bound by the FMH range reconstruction, so a
    lying server is caught by the same hash/signature machinery as for
    the three standard query types. *)
