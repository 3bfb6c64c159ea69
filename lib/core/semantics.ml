module Q = Aqv_num.Rational
module Template = Aqv_db.Template

type rejection =
  | Malformed
  | Bad_signature
  | Wrong_subdomain
  | Order_violation
  | Boundary_violation
  | Count_mismatch
  | Outside_domain
  | Stale_epoch

let rejection_to_string = function
  | Malformed -> "malformed response"
  | Bad_signature -> "signature does not verify"
  | Wrong_subdomain -> "proven subdomain does not contain the query input"
  | Order_violation -> "records out of committed order"
  | Boundary_violation -> "window boundaries inconsistent with the query"
  | Count_mismatch -> "result count inconsistent with the query"
  | Outside_domain -> "query input outside the owner's domain"
  | Stale_epoch -> "response signed for a stale database epoch"

exception Reject of rejection

let guard cond reason = if not cond then raise (Reject reason)

(* A record's score at [x], unreduced: every order and range check
   compares scores and nothing else, so none pays for a gcd. *)
let score template r x =
  match Template.score_unreduced template r x with
  | s -> s
  | exception Invalid_argument _ -> raise (Reject Malformed)

type ext_score = Neg_inf | Fin of Q.unreduced | Pos_inf

let le a b =
  match (a, b) with
  | Neg_inf, _ | _, Pos_inf -> true
  | _, Neg_inf | Pos_inf, _ -> false
  | Fin x, Fin y -> Q.compare_unreduced x y <= 0

let dist_to y = function
  | Neg_inf | Pos_inf -> Pos_inf
  | Fin s -> Fin (Q.to_unreduced (Q.abs (Q.sub (Q.of_unreduced s) y)))

(* Scores [rs] in order, each once, checking that none falls below the
   one before ([prev] first); returns the last. After a fall it still
   scores the rest: an unscorable record anywhere is [Malformed] first. *)
let rec scan template x prev = function
  | [] -> prev
  | r :: rest ->
    let s = Fin (score template r x) in
    if le prev s then scan template x s rest
    else begin
      List.iter (fun r -> ignore (score template r x)) rest;
      raise (Reject Order_violation)
    end

let check_window ~template ~x ~n ~query ~left ~right ~result =
  let count = List.length result in
  let left_score =
    match left with
    | Vo.Min_sentinel -> Neg_inf
    | Vo.Boundary_record r -> Fin (score template r x)
    | Vo.Max_sentinel -> raise (Reject Malformed)
  in
  let right_score =
    match right with
    | Vo.Max_sentinel -> Pos_inf
    | Vo.Boundary_record r -> Fin (score template r x)
    | Vo.Min_sentinel -> raise (Reject Malformed)
  in
  (* the window's first and last scores; an empty one has [left_score] *)
  let first, last =
    match result with
    | [] -> (left_score, left_score)
    | r :: rest ->
      let s = Fin (score template r x) in
      (s, scan template x s rest)
  in
  (* the committed order is non-decreasing at every point of the
     subdomain, so any shipped window must be non-decreasing at x. Past
     this check it is, so a bound on each record is a bound on its ends:
     it lies in [l, u] iff they do, and its farthest score from y is one
     of them (|s - y| is convex in s). *)
  guard (le left_score first && le last right_score) Order_violation;
  match query with
  | Query.Range { l; u; _ } ->
    let l = Fin (Q.to_unreduced l) and u = Fin (Q.to_unreduced u) in
    guard (count = 0 || (le l first && le last u)) Boundary_violation;
    guard (not (le l left_score)) Boundary_violation;
    guard (not (le right_score u)) Boundary_violation
  | Query.Top_k { k; _ } ->
    guard (count = min k n) Count_mismatch;
    guard (match right with Vo.Max_sentinel -> true | _ -> false) Boundary_violation;
    if count = n then
      guard (match left with Vo.Min_sentinel -> true | _ -> false) Boundary_violation
  | Query.Knn { k; y; _ } ->
    guard (count = min k n) Count_mismatch;
    let d_first = dist_to y first and d_last = dist_to y last in
    let dmax = if count = 0 then Neg_inf else if le d_first d_last then d_last else d_first in
    guard (le dmax (dist_to y left_score)) Boundary_violation;
    guard (le dmax (dist_to y right_score)) Boundary_violation
