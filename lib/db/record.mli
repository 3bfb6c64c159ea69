(** Database records.

    A record is an id, a vector of numeric attributes (exact rationals),
    and an opaque payload (the rest of the tuple — name, address, ...).
    The authenticated structures commit to whole records through
    {!digest}; query results ship whole records so users can recompute
    the commitments. *)

type t

val make : id:int -> attrs:Aqv_num.Rational.t array -> ?payload:string -> unit -> t
val id : t -> int
val attr : t -> int -> Aqv_num.Rational.t
val arity : t -> int
val payload : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : Aqv_util.Wire.writer -> t -> unit
(** Canonical encoding; input to {!digest}. *)

val decode : Aqv_util.Wire.reader -> t

val digest : t -> string
(** The paper's [H(r_i)]: SHA-256 of the canonical encoding, with a
    domain-separation tag distinguishing records from the [min]/[max]
    sentinels. *)

val min_sentinel_digest : string
val max_sentinel_digest : string
(** Commitments for the [f_min]/[f_max] tokens that bracket every sorted
    function list. *)
