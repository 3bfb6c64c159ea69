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

let check_window ~template ~x ~n ~query ~left ~right ~result =
  let score_of r = Fin (score template r x) in
  let count = List.length result in
  let left_score =
    match left with
    | Vo.Min_sentinel -> Neg_inf
    | Vo.Boundary_record r -> score_of r
    | Vo.Max_sentinel -> raise (Reject Malformed)
  in
  let right_score =
    match right with
    | Vo.Max_sentinel -> Pos_inf
    | Vo.Boundary_record r -> score_of r
    | Vo.Min_sentinel -> raise (Reject Malformed)
  in
  let window_scores = List.map score_of result in
  (* the committed order is non-decreasing at every point of the
     subdomain, so any shipped window must be non-decreasing at x *)
  let rec ordered prev = function
    | [] -> le prev right_score
    | s :: rest -> le prev s && ordered s rest
  in
  guard (ordered left_score window_scores) Order_violation;
  match query with
  | Query.Range { l; u; _ } ->
    let l = Fin (Q.to_unreduced l) and u = Fin (Q.to_unreduced u) in
    List.iter (fun s -> guard (le l s && le s u) Boundary_violation) window_scores;
    guard (not (le l left_score)) Boundary_violation;
    guard (not (le right_score u)) Boundary_violation
  | Query.Top_k { k; _ } ->
    guard (count = min k n) Count_mismatch;
    guard (match right with Vo.Max_sentinel -> true | _ -> false) Boundary_violation;
    if count = n then
      guard (match left with Vo.Min_sentinel -> true | _ -> false) Boundary_violation
  | Query.Knn { k; y; _ } ->
    guard (count = min k n) Count_mismatch;
    let dmax =
      List.fold_left
        (fun acc s ->
          match dist_to y s with
          | Fin _ as d -> if le d acc then acc else d
          | Neg_inf | Pos_inf -> raise (Reject Malformed))
        Neg_inf window_scores
    in
    guard (le dmax (dist_to y left_score)) Boundary_violation;
    guard (le dmax (dist_to y right_score)) Boundary_violation
