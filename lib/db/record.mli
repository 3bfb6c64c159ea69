(** Database records.

    A record is an id, a vector of numeric attributes (exact rationals),
    and an opaque payload (the rest of the tuple — name, address, ...).
    The authenticated structures commit to whole records through
    {!digest}; query results ship whole records so users can recompute
    the commitments.

    {b Cached bytes.} Both {!encode} and {!digest} are functions of the
    record's canonical encoding, which never changes once the record
    exists. A record keeps that encoding in one private field, empty
    after {!make}; the first {!encode} or {!digest} fills it from the
    record's own fields, never from the bytes it was decoded from, so
    it is canonical by construction. Every later {!encode} is
    one blit and every later {!digest} hashes the kept bytes: a record
    held by the server's index is encoded once, not once per reply.
    {!equal} and {!pp} ignore the field. Compare records with {!equal}
    only: polymorphic [=], [compare] or [Hashtbl.hash] on a record, or
    on a value that holds one, would read the field too.

    Threads and domains share records without a lock. The field is read
    once per call and written by one store of a whole, immutable string.
    Two calls that race to fill it each encode the same fields and store
    equal strings, and a racing reader sees either the empty field,
    which it fills again, or one of those whole strings. So every call
    returns the same bytes, whichever store it saw or lost. (A [Lazy.t]
    would not do: forcing one from two domains at once raises.) *)

type t

val make : id:int -> attrs:Aqv_num.Rational.t array -> ?payload:string -> unit -> t
val id : t -> int
val attr : t -> int -> Aqv_num.Rational.t
val arity : t -> int
val payload : t -> string

val affine :
  t -> const:Aqv_num.Rational.t -> Aqv_num.Rational.t array -> Aqv_num.Rational.unreduced
(** [affine r ~const x] is [const + attr r 0 * x.(0) + ... +
    attr r (n-1) * x.(n-1)] for [n = Array.length x], unreduced, read
    from the attributes in place ({!Aqv_num.Rational.affine_unreduced});
    attributes past [n] are not read. [Template.score] and
    [Template.score_unreduced] are built on it.
    @raise Invalid_argument if [arity r < n]. *)

val equal : t -> t -> bool
(** Same id, attributes and payload; the cached bytes play no part. *)

val pp : Format.formatter -> t -> unit

val encode : Aqv_util.Wire.writer -> t -> unit
(** Canonical encoding, the input to {!digest}: the id and the attribute
    count as varints, each attribute ({!Aqv_num.Rational.encode}), then
    the payload as a length-prefixed string. Written with one blit of
    the cached bytes, filling them first if empty. *)

val decode : Aqv_util.Wire.reader -> t
(** Costs no encode. A process-wide table keeps, at [id land (2^14-1)],
    the exact bytes a record was last decoded from and that record;
    input that starts with them returns it, as a fresh decode, reading
    left to right and stopping where the bytes say, would return an
    equal record. So records decoded apart may be one value. *)

val digest : t -> string
(** The paper's [H(r_i)]: SHA-256 of a domain-separation tag and the
    canonical encoding (the cached bytes, filled first if empty), the
    tag distinguishing records from the [min]/[max] sentinels. *)

val min_sentinel_digest : string
val max_sentinel_digest : string
(** Commitments for the [f_min]/[f_max] tokens that bracket every sorted
    function list. *)
