(** Query-semantics re-execution shared by the IFMH client and the
    signature-mesh client: given an authenticated window (result records
    plus its two boundaries), check order, membership and completeness
    conditions for the query. *)

type rejection =
  | Malformed
  | Bad_signature
  | Wrong_subdomain
  | Order_violation
  | Boundary_violation
  | Count_mismatch
  | Outside_domain
  | Stale_epoch

val rejection_to_string : rejection -> string

exception Reject of rejection

val guard : bool -> rejection -> unit
(** @raise Reject when the condition fails. *)

val score :
  Aqv_db.Template.t -> Aqv_db.Record.t -> Aqv_num.Rational.t array -> Aqv_num.Rational.unreduced
(** [score template r x] is {!Aqv_db.Template.score_unreduced}: [r]'s
    score at [x], unreduced, for {!Aqv_num.Rational.compare_unreduced}.
    Two such scores, or one and a bound lifted by
    {!Aqv_num.Rational.to_unreduced}, compare exactly as the reduced
    scores do, so every order, range and side check decides as it would
    on {!Aqv_db.Template.score}.
    @raise Reject [Malformed] if [r] cannot be scored at [x] (too few
    attributes, or [x] of the wrong dimension). *)

val check_window :
  template:Aqv_db.Template.t ->
  x:Aqv_num.Rational.t array ->
  n:int ->
  query:Query.t ->
  left:Vo.boundary ->
  right:Vo.boundary ->
  result:Aqv_db.Record.t list ->
  unit
(** [n] is the total number of records committed in the list. Checks:
    scores are non-decreasing across [left; result; right]; every result
    record satisfies the query; the boundaries prove completeness
    (strictly outside the range, the max sentinel for top-k, no nearer
    neighbour for KNN). One pass scores each record once and checks the
    order; an unscorable record anywhere is [Malformed], then any order
    violation beats any bound one, checked on the ordered window's ends.
    @raise Reject on any violation. *)
