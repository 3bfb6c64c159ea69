module B = Aqv_bigint.Bigint
module W = Aqv_util.Wire

(* Invariant: gcd(|num|, den) = 1, den > 0, zero is 0/1. [I] exactly
   when both the numerator and the denominator are native ints other
   than [min_int]; [Z] otherwise. One form per value, so structural
   equality is value equality. *)
type t = I of { n : int; d : int } | Z of { num : B.t; den : B.t }

(* Overflow-safe operand bounds. Magnitudes below 2^31 keep a product
   below 2^62; below 2^30, a sum of two products stays below 2^61; below
   2^61, a plain sum stays below 2^62. Each result is therefore a native
   int other than [min_int]. *)
let lim30 = 1 lsl 30
let lim31 = 1 lsl 31
let lim61 = 1 lsl 61

(* Every magnitude below [lim]: non-negative ints or-ed together stay
   below a power of two exactly when each does. *)
let[@inline] below lim n1 d1 n2 d2 = Stdlib.abs n1 lor d1 lor Stdlib.abs n2 lor d2 < lim

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [n/d] for [d > 0], both native and not [min_int]. *)
let reduce n d =
  if d = 1 then I { n; d }
  else
    let g = gcd (Stdlib.abs n) d in
    if g = 1 then I { n; d } else I { n = n / g; d = d / g }

let zero = I { n = 0; d = 1 }
let one = I { n = 1; d = 1 }
let minus_one = I { n = -1; d = 1 }

(* Canonical form of a reduced pair with [den > 0]. *)
let of_reduced num den =
  match (B.to_int_opt num, B.to_int_opt den) with
  | Some n, Some d when n <> min_int -> I { n; d }
  | _ -> Z { num; den }

let big num den =
  let s = B.sign den in
  if s = 0 then raise Division_by_zero;
  let num, den = if s < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then zero
  else begin
    let g = B.gcd num den in
    if B.equal g B.one then of_reduced num den else of_reduced (B.div num g) (B.div den g)
  end

let of_int v = if v = min_int then Z { num = B.of_int v; den = B.one } else I { n = v; d = 1 }

let of_ints p q =
  if q = 0 then raise Division_by_zero
  else if p = min_int || q = min_int then big (B.of_int p) (B.of_int q)
  else if q < 0 then reduce (-p) (-q)
  else reduce p q

let num = function I { n; _ } -> B.of_int n | Z { num; _ } -> num
let den = function I { d; _ } -> B.of_int d | Z { den; _ } -> den

let of_decimal s =
  match String.index_opt s '.' with
  | None -> big (B.of_string s) B.one
  | Some i ->
    let int_part = String.sub s 0 i in
    let frac = String.sub s (i + 1) (String.length s - i - 1) in
    if frac = "" then big (B.of_string int_part) B.one
    else begin
      String.iter (function '0' .. '9' -> () | _ -> invalid_arg "Rational.of_decimal") frac;
      let pow10 k =
        let rec go acc k = if k = 0 then acc else go (B.mul_int acc 10) (k - 1) in
        go B.one k
      in
      let scale = pow10 (String.length frac) in
      let whole = B.of_string (if int_part = "" || int_part = "-" || int_part = "+" then int_part ^ "0" else int_part) in
      let fnum = B.of_string frac in
      let neg = String.length s > 0 && s.[0] = '-' in
      let combined = B.add (B.mul (B.abs whole) scale) fnum in
      big (if neg then B.neg combined else combined) scale
    end

let to_string = function
  | I { n; d = 1 } -> string_of_int n
  | I { n; d } -> string_of_int n ^ "/" ^ string_of_int d
  | Z { num; den } ->
    if B.equal den B.one then B.to_string num else B.to_string num ^ "/" ^ B.to_string den

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_float = function
  | I { n; d } -> float_of_int n /. float_of_int d
  | Z { num; den } -> (
    (* good enough for display: go through strings only when huge *)
    match (B.to_int_opt num, B.to_int_opt den) with
    | Some n, Some d -> float_of_int n /. float_of_int d
    | _ -> float_of_string (B.to_string num) /. float_of_string (B.to_string den))

let compare a b =
  match (a, b) with
  | I x, I y when x.d = y.d -> Int.compare x.n y.n
  | I x, I y when below lim31 x.n x.d y.n y.d -> Int.compare (x.n * y.d) (y.n * x.d)
  | _ -> B.compare (B.mul (num a) (den b)) (B.mul (num b) (den a))

let equal a b =
  match (a, b) with
  | I x, I y -> x.n = y.n && x.d = y.d
  | Z x, Z y -> B.equal x.num y.num && B.equal x.den y.den
  | _ -> false

let sign = function I { n; _ } -> Int.compare n 0 | Z { num; _ } -> B.sign num
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg = function I { n; d } -> I { n = -n; d } | Z { num; den } -> of_reduced (B.neg num) den
let abs = function I { n; d } -> I { n = Stdlib.abs n; d } | Z { num; den } -> of_reduced (B.abs num) den

let add a b =
  match (a, b) with
  | I x, I y when x.d = y.d && Stdlib.abs x.n lor Stdlib.abs y.n < lim61 -> reduce (x.n + y.n) x.d
  | I x, I y when below lim30 x.n x.d y.n y.d -> reduce ((x.n * y.d) + (y.n * x.d)) (x.d * y.d)
  | _ ->
    let ad = den a and bd = den b in
    if B.equal ad bd then big (B.add (num a) (num b)) ad
    else big (B.add (B.mul (num a) bd) (B.mul (num b) ad)) (B.mul ad bd)

let sub a b =
  match (a, b) with
  | I x, I y when x.d = y.d && Stdlib.abs x.n lor Stdlib.abs y.n < lim61 -> reduce (x.n - y.n) x.d
  | I x, I y when below lim30 x.n x.d y.n y.d -> reduce ((x.n * y.d) - (y.n * x.d)) (x.d * y.d)
  | _ ->
    let ad = den a and bd = den b in
    if B.equal ad bd then big (B.sub (num a) (num b)) ad
    else big (B.sub (B.mul (num a) bd) (B.mul (num b) ad)) (B.mul ad bd)

let mul a b =
  match (a, b) with
  | I x, I y when below lim31 x.n x.d y.n y.d -> reduce (x.n * y.n) (x.d * y.d)
  | _ -> big (B.mul (num a) (num b)) (B.mul (den a) (den b))

let div a b =
  match (a, b) with
  | I x, I y when y.n <> 0 && below lim31 x.n x.d y.n y.d ->
    let n = x.n * y.d and d = x.d * y.n in
    if d < 0 then reduce (-n) (-d) else reduce n d
  | _ -> big (B.mul (num a) (den b)) (B.mul (den a) (num b))

let average a b =
  match (a, b) with
  | I x, I y when below lim30 x.n x.d y.n y.d ->
    reduce ((x.n * y.d) + (y.n * x.d)) (2 * x.d * y.d)
  | _ ->
    let ad = den a and bd = den b in
    big (B.add (B.mul (num a) bd) (B.mul (num b) ad)) (B.mul B.two (B.mul ad bd))

(* A value not yet reduced: either form of [t], but an [I] may share a
   factor between [n] and [d] ([d > 0], neither [min_int], as in [t]).
   [compare] never relies on reduction, so it orders these exactly. *)
type unreduced = t

let to_unreduced q = q
let of_unreduced = function I { n; d } -> reduce n d | Z _ as q -> q
let compare_unreduced = compare
let sign_unreduced = sign

(* [add]'s native cases without the final gcd; past their bounds, [add]
   itself, which takes unreduced operands as they are *)
let add_unreduced a b =
  match (a, b) with
  | I x, I y when x.d = y.d && Stdlib.abs x.n lor Stdlib.abs y.n < lim61 -> I { n = x.n + y.n; d = x.d }
  | I x, I y when below lim30 x.n x.d y.n y.d -> I { n = (x.n * y.d) + (y.n * x.d); d = x.d * y.d }
  | _ -> add a b

(* [b + a.(0) * x.(0) + ...] over one running native fraction [num/den],
   left unreduced: a term over the running denominator is one add, any
   other one cross-multiply, both within the bounds above. Past a bound,
   or at a [Bigint] operand, the terms left are added one [mul] and
   [add] at a time. Top-level functions, not local closures: a score is
   computed per record per verification, and a closure is an allocation
   each time. *)
let rec affine_fold a x acc i =
  if i = Array.length x then acc
  else affine_fold a x (if sign a.(i) = 0 then acc else add acc (mul a.(i) x.(i))) (i + 1)

let rec affine_native a x num den i =
  if i = Array.length x then I { n = num; d = den }
  else
    match (a.(i), x.(i)) with
    | I { n = 0; _ }, _ -> affine_native a x num den (i + 1)
    | I p, I q when below lim31 p.n p.d q.n q.d ->
      let tn = p.n * q.n and td = p.d * q.d in
      if td = den && Stdlib.abs num lor Stdlib.abs tn < lim61 then
        affine_native a x (num + tn) den (i + 1)
      else if below lim30 num den tn td then
        affine_native a x ((num * td) + (tn * den)) (den * td) (i + 1)
      else affine_fold a x (reduce num den) i
    | _ -> affine_fold a x (reduce num den) i

let affine_unreduced b a x =
  match b with I { n; d } -> affine_native a x n d 0 | Z _ -> affine_fold a x b 0

let affine b a x = of_unreduced (affine_unreduced b a x)

let encode w = function
  | I { n; d } ->
    W.u8 w (if n < 0 then 1 else 0);
    W.uint_be w (Stdlib.abs n);
    W.uint_be w d
  | Z { num; den } ->
    W.u8 w (if B.sign num < 0 then 1 else 0);
    W.bytes w (B.to_bytes_be (B.abs num));
    W.bytes w (B.to_bytes_be den)

(* Wire input is untrusted: any sign byte other than 1 means
   non-negative, fields may be padded or unreduced, and a zero
   denominator is malformed input, reported like every other decode
   error, not [Division_by_zero]. A field past the native range is read
   again as [Bigint] bytes. *)
let decode_big r num =
  let den = B.of_bytes_be (W.read_bytes r) in
  if B.is_zero den then failwith "Rational: zero denominator";
  big num den

let decode r =
  match W.read_signed_uint_be r with
  | n when n = min_int ->
    let negative = W.read_u8 r = 1 in
    let num = B.of_bytes_be (W.read_bytes r) in
    decode_big r (if negative then B.neg num else num)
  | n ->
    let d = W.read_uint_be r in
    if d > 0 then reduce n d
    else if d = 0 then failwith "Rational: zero denominator"
    else decode_big r (B.of_int n)
