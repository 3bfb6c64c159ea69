module Q = Rational

type split = Pos | Neg | Split

type repr =
  | Interval of { lo : Q.t; hi : Q.t }  (* open interior (lo, hi) *)
  | Poly of { witness : Q.t array }  (* strictly interior point *)

type t = { domain : Domain.t; cons : Halfspace.t list; repr : repr }

let constraints t = List.rev t.cons

let of_domain d =
  if Domain.dim d = 1 then
    { domain = d; cons = []; repr = Interval { lo = Domain.lo d 0; hi = Domain.hi d 0 } }
  else { domain = d; cons = []; repr = Poly { witness = Domain.center d } }

(* ------------------------------------------------------------------ *)
(* LP backend (dimension >= 2)                                         *)
(* ------------------------------------------------------------------ *)

(* A point with strictly positive slack on every halfspace AND strictly
   inside the domain box, or None. A strict-box witness matters: ranking
   functions can tie exactly on a box facet (e.g. a difference function
   proportional to one coordinate), and sorting at such a point would
   commit an order that disagrees with the cell's interior. Because
   subdomains are intersections of open half-spaces with a
   full-dimensional box, strict-box feasibility is equivalent to the
   closed-box one. Variables: u_i = x_i - lo_i and a slack variable t;
   maximize t subject to t <= 1. *)
let strictly_feasible dom cons =
  let d = Domain.dim dom in
  let nvars = d + 1 in
  let obj = Array.make nvars Q.zero in
  obj.(d) <- Q.one;
  let rows = ref [] in
  (* t <= u_i <= (hi_i - lo_i) - t *)
  for i = 0 to d - 1 do
    let a = Array.make nvars Q.zero in
    a.(i) <- Q.one;
    a.(d) <- Q.one;
    rows := (a, Q.sub (Domain.hi dom i) (Domain.lo dom i)) :: !rows;
    let b = Array.make nvars Q.zero in
    b.(i) <- Q.minus_one;
    b.(d) <- Q.one;
    rows := (b, Q.zero) :: !rows
  done;
  (* t <= 1 *)
  let trow = Array.make nvars Q.zero in
  trow.(d) <- Q.one;
  rows := (trow, Q.one) :: !rows;
  List.iter
    (fun (h : Halfspace.t) ->
      let diff = h.Halfspace.diff in
      (* c0 = diff evaluated at the box corner lo *)
      let c0 = ref (Linfun.const diff) in
      for i = 0 to d - 1 do
        c0 := Q.add !c0 (Q.mul (Linfun.coeff diff i) (Domain.lo dom i))
      done;
      let a = Array.make nvars Q.zero in
      (match h.Halfspace.side with
      | Halfspace.Above ->
        (* diff(x) >= t  <=>  -sum a_i u_i + t <= c0 *)
        for i = 0 to d - 1 do
          a.(i) <- Q.neg (Linfun.coeff diff i)
        done;
        a.(d) <- Q.one;
        rows := (a, !c0) :: !rows
      | Halfspace.Below ->
        (* diff(x) <= -t  <=>  sum a_i u_i + t <= -c0 *)
        for i = 0 to d - 1 do
          a.(i) <- Linfun.coeff diff i
        done;
        a.(d) <- Q.one;
        rows := (a, Q.neg !c0) :: !rows))
    cons;
  match Simplex.maximize ~obj ~rows:!rows with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded -> assert false (* t <= 1 bounds the objective *)
  | Simplex.Optimal (v, x) ->
    if Q.sign v <= 0 then None
    else Some (Array.init d (fun i -> Q.add (Domain.lo dom i) x.(i)))

(* ------------------------------------------------------------------ *)
(* 1-D helpers                                                         *)
(* ------------------------------------------------------------------ *)

(* For a univariate diff = a*x + b under a side, returns the refined
   open interval, or None when the interior dies. *)
let interval_refine ~lo ~hi (h : Halfspace.t) =
  let a = Linfun.coeff h.Halfspace.diff 0 in
  let b = Linfun.const h.Halfspace.diff in
  let sa = Q.sign a in
  if sa = 0 then begin
    (* constant difference: keeps or kills the whole interval *)
    let ok =
      match h.Halfspace.side with
      | Halfspace.Above -> Q.sign b > 0
      | Halfspace.Below -> Q.sign b < 0
    in
    if ok then Some (lo, hi) else None
  end
  else begin
    let root = Q.div (Q.neg b) a in
    let keep_right =
      (* the side where diff > 0 is x > root iff a > 0 *)
      match h.Halfspace.side with
      | Halfspace.Above -> sa > 0
      | Halfspace.Below -> sa < 0
    in
    let lo, hi = if keep_right then (Q.max lo root, hi) else (lo, Q.min hi root) in
    if Q.compare lo hi < 0 then Some (lo, hi) else None
  end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let add t h =
  match t.repr with
  | Interval { lo; hi } ->
    (match interval_refine ~lo ~hi h with
    | None -> None
    | Some (lo, hi) -> Some { t with cons = h :: t.cons; repr = Interval { lo; hi } })
  | Poly _ ->
    let diff = h.Halfspace.diff in
    if Linfun.is_constant diff then begin
      let ok =
        match h.Halfspace.side with
        | Halfspace.Above -> Q.sign (Linfun.const diff) > 0
        | Halfspace.Below -> Q.sign (Linfun.const diff) < 0
      in
      if ok then Some { t with cons = h :: t.cons } else None
    end
    else begin
      match strictly_feasible t.domain (h :: t.cons) with
      | None -> None
      | Some witness -> Some { t with cons = h :: t.cons; repr = Poly { witness } }
    end

let interior_point t =
  match t.repr with
  | Interval { lo; hi } -> [| Q.average lo hi |]
  | Poly { witness } -> witness

let classify t diff =
  if Linfun.is_zero diff then invalid_arg "Region.classify: zero difference";
  match t.repr with
  | Interval { lo; hi } ->
    let a = Linfun.coeff diff 0 and b = Linfun.const diff in
    if Q.sign a = 0 then (if Q.sign b > 0 then Pos else Neg)
    else begin
      let root = Q.div (Q.neg b) a in
      if Q.compare lo root < 0 && Q.compare root hi < 0 then Split
      else begin
        let mid = Q.average lo hi in
        if Q.sign (Linfun.eval diff [| mid |]) > 0 then Pos else Neg
      end
    end
  | Poly _ ->
    if Linfun.is_constant diff then (if Q.sign (Linfun.const diff) > 0 then Pos else Neg)
    else begin
      let at_witness = Q.sign (Linfun.eval diff (interior_point t)) in
      let pos_side () = strictly_feasible t.domain (Halfspace.above diff :: t.cons) <> None in
      let neg_side () = strictly_feasible t.domain (Halfspace.below diff :: t.cons) <> None in
      if at_witness > 0 then (if neg_side () then Split else Pos)
      else if at_witness < 0 then (if pos_side () then Split else Neg)
      else if pos_side () then (if neg_side () then Split else Pos)
      else Neg
    end

let interval_bounds t =
  match t.repr with Interval { lo; hi } -> Some (lo, hi) | Poly _ -> None

