(** The owner-specified query domain: a closed axis-aligned box over the
    weight variables [X = (x_1 .. x_d)]. The root of every I-tree covers
    exactly this box. *)

type t

val unit_box : int -> t
(** [\[0,1\]^d]: the usual normalized-weight domain. *)

val of_ints : (int * int) list -> t
(** One [(lo, hi)] pair per dimension, [lo < hi].
    @raise Invalid_argument on an empty list or inverted bounds. *)

val dim : t -> int
val lo : t -> int -> Rational.t
val hi : t -> int -> Rational.t
val contains : t -> Rational.t array -> bool
(** Closed-box membership. *)

val center : t -> Rational.t array
val pp : Format.formatter -> t -> unit
val encode : Aqv_util.Wire.writer -> t -> unit
val decode : Aqv_util.Wire.reader -> t
(** @raise Failure on malformed bytes, and on every shape {!of_ints}
    refuses (no dimensions, [lo >= hi] in some dimension). *)
