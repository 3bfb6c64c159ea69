(** Utility-function templates.

    The data owner publishes, next to the database, a template mapping
    each record to a math function of the query variables
    [X = (x_1 .. x_d)] (Fig. 1 of the paper: [Score = GPA*w1 + Award*w2
    + Paper*w3]). Both the server and the verifying user apply the same
    public template, so only records need to be authenticated. *)

type t

val linear_weights : dims:int -> t
(** [f_r(X) = attr_1 * x_1 + ... + attr_dims * x_dims]: the paper's
    running example. Records need at least [dims] attributes. *)

val affine_1d : t
(** [f_r(x) = attr_0 * x + attr_1]: univariate lines, the shape used in
    the paper's illustrations (Fig. 2) and its simulation section. *)

val dim : t -> int
(** Number of query variables [d]. *)

val apply : t -> Record.t -> Aqv_num.Linfun.t
(** Interpret a record as a function.
    @raise Invalid_argument if the record has too few attributes. *)

val score : t -> Record.t -> Aqv_num.Rational.t array -> Aqv_num.Rational.t
(** [score t r x] is [Linfun.eval (apply t r) x], read from the record's
    attributes in place ({!Record.affine}): no function is built.
    @raise Invalid_argument if the record has too few attributes or [x]
    is not [dim t] long. *)

val score_unreduced :
  t -> Record.t -> Aqv_num.Rational.t array -> Aqv_num.Rational.unreduced
(** [score t r x] before its final reduction, for a caller that only
    compares scores: for all records [a], [b] and any [q],
    [Rational.compare_unreduced (score_unreduced t a x) (score_unreduced
    t b x) = Rational.compare (score t a x) (score t b x)], and
    [Rational.compare_unreduced (score_unreduced t a x)
    (Rational.to_unreduced q) = Rational.compare (score t a x) q]. It
    skips the gcd that puts [score] in canonical form, and the compare
    of two such scores is one integer compare over a shared
    denominator, or a cross-multiplication ({!Aqv_num.Rational.compare_unreduced}).
    @raise Invalid_argument exactly where [score] does. *)

val pp : Format.formatter -> t -> unit

val encode : Aqv_util.Wire.writer -> t -> unit

val decode : Aqv_util.Wire.reader -> t
(** @raise Failure on a bad tag or a linear-weights template with no
    dimensions. *)
