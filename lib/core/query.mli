(** Analytic queries: top-k, range and KNN over a user-supplied function
    input [X], and their exact window semantics on a sorted score list.

    Both the server (to answer) and the verifying client (to re-check)
    evaluate the same [window] function, so the two sides agree on the
    answer of every query by construction. The score list is abstracted
    as an accessor so the server can probe a persistent structure in
    O(log n) without materializing all scores. *)

module Q := Aqv_num.Rational

type t =
  | Top_k of { x : Q.t array; k : int }
      (** the [k] records with the highest scores under input [x] *)
  | Range of { x : Q.t array; l : Q.t; u : Q.t }
      (** all records with [l <= score <= u] *)
  | Knn of { x : Q.t array; k : int; y : Q.t }
      (** the [k] records whose scores are nearest to [y]; ties broken
          towards the lower-scoring side *)

val top_k : x:Q.t array -> k:int -> t
val range : x:Q.t array -> l:Q.t -> u:Q.t -> t
val knn : x:Q.t array -> k:int -> y:Q.t -> t
(** @raise Invalid_argument on [k < 1] or [l > u]. *)

val x : t -> Q.t array
(** The function input. *)

val pp : Format.formatter -> t -> unit

val window : n:int -> score:(int -> Q.unreduced) -> t -> (int * int) option
(** [window ~n ~score q] is the inclusive index window [(a, b)] of the
    answer within the ascending score sequence [score 0 .. score (n-1)],
    or [None] when the answer is empty. Every query type's answer is a
    consecutive window of the sorted list — the property the paper's
    verification structures rely on. The sequence must be
    non-decreasing. Scores are only compared
    ({!Aqv_num.Rational.compare_unreduced}), never reduced: a KNN step
    takes the left candidate exactly when [2y <= s_l + s_r]. *)

val insertion_point : n:int -> score:(int -> Q.unreduced) -> Q.unreduced -> int
(** Smallest index whose score is [>= v]; [n] if none. *)

val encode : Aqv_util.Wire.writer -> t -> unit
(** Canonical wire encoding, used by the network protocol. *)

val decode : Aqv_util.Wire.reader -> t
(** @raise Failure on malformed input. *)
