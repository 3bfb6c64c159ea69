(** Exact rational arithmetic over {!Aqv_bigint.Bigint}.

    All geometry in the library (scores, intersection points, subdomain
    boundaries) is exact: ranking two records never suffers a floating
    point tie-break, which matters because the verification structures
    commit to a total order. Values are kept normalized
    ([gcd(num,den) = 1], [den > 0]), so structural equality is value
    equality and encodings are canonical. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints p q] is p/q. @raise Division_by_zero if [q = 0]. *)

val of_bigints : Aqv_bigint.Bigint.t -> Aqv_bigint.Bigint.t -> t
val num : t -> Aqv_bigint.Bigint.t
val den : t -> Aqv_bigint.Bigint.t
(** Always positive. *)

val of_decimal : string -> t
(** Parse ["-12.345"]-style decimals (and plain integers).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** ["p/q"], or ["p"] when [q = 1]. Canonical. *)

val pp : Format.formatter -> t -> unit
val to_float : t -> float
(** Lossy; for display and plotting only. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero. *)

val inv : t -> t
val mul_int : t -> int -> t

val mediant : t -> t -> t
(** [(p1+p2)/(q1+q2)]: a value strictly between two distinct rationals,
    with smaller growth than the arithmetic mean. Used to pick interior
    sample points of subdomains. *)

val average : t -> t -> t

val encode : Aqv_util.Wire.writer -> t -> unit
(** Canonical wire encoding (signed numerator bytes, denominator bytes). *)

val decode : Aqv_util.Wire.reader -> t
(** @raise Failure on malformed input, a zero denominator included. *)
