(* Test-side helpers over [Aqv_num]: constructors and membership tests
   the suites need but nothing in the library calls, written against the
   public interfaces only. *)

open Aqv_num
module Q = Rational

(* [n/d] from two [Bigint]s, [d <> 0], through the decimal parser. *)
let q_of_bigints n d =
  let of_bigint z = Q.of_decimal (Aqv_bigint.Bigint.to_string z) in
  Q.div (of_bigint n) (of_bigint d)

(* Numerator and (positive) denominator of the reduced form, read back
   from [Rational.to_string] (["n"] or ["n/d"]). *)
let q_num_den q =
  let module Z = Aqv_bigint.Bigint in
  let s = Q.to_string q in
  match String.index_opt s '/' with
  | None -> (Z.of_string s, Z.one)
  | Some i -> (Z.of_string (String.sub s 0 i), Z.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let q_num q = fst (q_num_den q)
let q_den q = snd (q_num_den q)

(* [f - f] is the zero function of [f]'s dimension. *)
let linfun_neg f = Linfun.sub (Linfun.sub f f) f

(* The dimension of [f]: the length of the one zero vector
   [Linfun.eval] accepts (it raises [Invalid_argument] on any other). *)
let linfun_dim f =
  let rec go d =
    match Linfun.eval f (Array.make d Q.zero) with
    | _ -> d
    | exception Invalid_argument _ -> go (d + 1)
  in
  go 0

let linfun_coeffs f = Array.init (linfun_dim f) (Linfun.coeff f)

(* Structural equality: same dimension, coefficients and constant. *)
let linfun_equal f g =
  let a = linfun_coeffs f and b = linfun_coeffs g in
  Array.length a = Array.length b
  && Array.for_all2 Q.equal a b
  && Q.equal (Linfun.const f) (Linfun.const g)

let linfun_pp ppf f =
  let first = ref true in
  Format.pp_print_string ppf "(";
  Array.iteri
    (fun i c ->
      if Q.sign c <> 0 then begin
        if not !first then Format.pp_print_string ppf " + ";
        Format.fprintf ppf "%a*x%d" Q.pp c i;
        first := false
      end)
    (linfun_coeffs f);
  if Q.sign (Linfun.const f) <> 0 || !first then begin
    if not !first then Format.pp_print_string ppf " + ";
    Q.pp ppf (Linfun.const f)
  end;
  Format.pp_print_string ppf ")"

(* Open semantics on both sides ([> 0] / [< 0]): membership in the
   interior of the half-space. *)
let halfspace_contains_strictly (h : Halfspace.t) x =
  let v = Linfun.eval h.diff x in
  match h.side with Halfspace.Above -> Q.sign v > 0 | Halfspace.Below -> Q.sign v < 0

(* Half-open membership in a region cut from [domain]: [Above]
   constraints admit their boundary ([diff >= 0]), [Below] constraints
   do not ([diff < 0]); the domain box is closed. *)
let region_contains ~domain r x =
  let inside (h : Halfspace.t) =
    let v = Linfun.eval h.diff x in
    match h.side with Halfspace.Above -> Q.sign v >= 0 | Halfspace.Below -> Q.sign v < 0
  in
  Domain.contains domain x && List.for_all inside (Region.constraints r)
