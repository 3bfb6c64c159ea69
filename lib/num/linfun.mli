(** Linear ranking functions [f(X) = a_1 x_1 + ... + a_d x_d + b].

    The paper interprets every database record, through the owner's
    utility-function template, as one such function of the query weight
    vector [X]. Intersections of pairs of these functions define the
    subdomain decomposition indexed by the I-tree. *)

type t

val make : coeffs:Rational.t array -> const:Rational.t -> t
val of_ints : int array -> int -> t
(** Integer coefficients/constant convenience. *)

val coeff : t -> int -> Rational.t
val const : t -> Rational.t

val eval : t -> Rational.t array -> Rational.t
(** @raise Invalid_argument on dimension mismatch. *)

val eval_unreduced : t -> Rational.t array -> Rational.unreduced
(** The value of {!eval}, without its final gcd: for a caller that only
    takes its sign or compares it. @raise Invalid_argument as {!eval}. *)

val sub : t -> t -> t
(** Pointwise difference: the function whose zero set is the
    intersection hyperplane of the two arguments. *)

val is_zero : t -> bool
(** All coefficients and the constant are zero. *)

val is_constant : t -> bool
(** All coefficients zero (the constant may not be). *)

