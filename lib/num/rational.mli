(** Exact rational arithmetic over {!Aqv_bigint.Bigint}.

    All geometry in the library (scores, intersection points, subdomain
    boundaries) is exact: ranking two records never suffers a floating
    point tie-break, which matters because the verification structures
    commit to a total order. Values are kept normalized
    ([gcd(num,den) = 1], [den > 0]), so structural equality is value
    equality and encodings are canonical.

    {b Representation.} A value whose reduced numerator and denominator
    both fit a native [int] other than [min_int] is held as that pair of
    machine words (one heap block); any other value as a pair of
    {!Aqv_bigint.Bigint}s. The choice is a function of the value alone,
    so the canonical-form promise above holds across both forms.

    {b Overflow bounds.} Operations on two native values stay on machine
    words when every operand magnitude (numerators and denominators) is
    below 2^31 for a product ([mul], [div], [compare] of unequal
    denominators), below 2^30 for a sum of products ([add], [sub] of
    unequal denominators, [average]), and below 2^61 for a plain sum
    ([add], [sub] over one denominator); each such result is
    below 2^62 and is reduced by a native gcd. Past a bound, or on a
    [Bigint] operand, the operation runs on [Bigint]s and the result is
    brought back to the native form when it fits. Both paths compute
    the same value, so callers never see which one ran. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints p q] is p/q. @raise Division_by_zero if [q = 0]. *)

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

val average : t -> t -> t

val affine : t -> t array -> t array -> t
(** [affine b a x] is [b + a.(0) * x.(0) + ... + a.(n-1) * x.(n-1)] for
    [n = Array.length x]; [a] must be at least as long, and its entries
    past [n] are not read. It is {!of_unreduced} of {!affine_unreduced}:
    the result is the one a term-by-term fold gives. *)

(** {1 Unreduced values}

    A value whose native numerator and denominator may share a factor:
    what {!affine} computes before its final gcd. Where a value is only
    compared, the gcd is waste. *)

type unreduced

val affine_unreduced : t -> t array -> t array -> unreduced
(** [affine_unreduced b a x] is the value of [affine b a x]. Native terms
    are summed over one running denominator, within the bounds above,
    and left unreduced; from the first term past a bound on, terms go
    through {!mul} and {!add}. *)

val to_unreduced : t -> unreduced
(** The same value; costs nothing. *)

val of_unreduced : unreduced -> t
(** The same value in canonical form. *)

val compare_unreduced : unreduced -> unreduced -> int
(** [compare_unreduced a b] is [compare (of_unreduced a) (of_unreduced
    b)], without reducing either: two native values over one denominator
    compare by one integer compare, other native values with every
    magnitude below 2{^31} by cross-multiplication, and the rest by a
    {!Aqv_bigint.Bigint} cross-multiplication. No floats. *)

val sign_unreduced : unreduced -> int
(** [sign_unreduced a] is [sign (of_unreduced a)]: the numerator's sign,
    read without reducing. *)

val add_unreduced : unreduced -> unreduced -> unreduced
(** The value of [add (of_unreduced a) (of_unreduced b)], left
    unreduced: two native operands within {!add}'s bounds sum on
    machine words, any others go through {!add}. *)

val encode : Aqv_util.Wire.writer -> t -> unit
(** Canonical wire encoding: a sign byte (1 for negative, else 0), then
    the numerator's magnitude and the denominator, each a
    length-prefixed minimal big-endian byte string ([0] is one zero
    byte). A native value is written straight to the buffer. *)

val decode : Aqv_util.Wire.reader -> t
(** Accepts non-canonical forms and normalizes them: any sign byte other
    than 1 means non-negative, fields may carry leading zero bytes, and
    the fraction need not be reduced. Fields whose value fits an [int]
    are read in place, others through {!Aqv_bigint.Bigint}.
    @raise Failure on malformed input, a zero denominator included. *)
