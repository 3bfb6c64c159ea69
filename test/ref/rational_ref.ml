(* Reference oracle for [Aqv_num.Rational]: the plain representation, a
   reduced pair of [Bigint]s with every operation going through
   [Bigint] arithmetic and [Bigint.gcd]. test_num checks the library's
   native-word fast paths against it operation by operation — values,
   comparison signs, encoded bytes and decoding of non-canonical wire
   forms. *)

module Z = Aqv_bigint.Bigint

(* Invariant: den > 0, gcd(|num|, den) = 1. Zero is 0/1. *)
type t = { num : Z.t; den : Z.t }

let mk num den =
  (* normalize sign into num, reduce by gcd *)
  let s = Z.sign den in
  if s = 0 then raise Division_by_zero;
  let num, den = if s < 0 then (Z.neg num, Z.neg den) else (num, den) in
  if Z.is_zero num then { num = Z.of_int 0; den = Z.one }
  else begin
    let g = Z.gcd num den in
    if Z.equal g Z.one then { num; den }
    else { num = Z.div num g; den = Z.div den g }
  end

let zero = { num = Z.of_int 0; den = Z.one }
let one = { num = Z.one; den = Z.one }
let minus_one = { num = Z.of_int (-1); den = Z.one }

let of_int v = { num = Z.of_int v; den = Z.one }
let of_ints p q = mk (Z.of_int p) (Z.of_int q)
let of_bigints = mk
let num t = t.num
let den t = t.den

let of_decimal s =
  match String.index_opt s '.' with
  | None -> { num = Z.of_string s; den = Z.one }
  | Some i ->
    let int_part = String.sub s 0 i in
    let frac = String.sub s (i + 1) (String.length s - i - 1) in
    if frac = "" then { num = Z.of_string int_part; den = Z.one }
    else begin
      String.iter (function '0' .. '9' -> () | _ -> invalid_arg "Rational.of_decimal") frac;
      let pow10 k =
        let rec go acc k = if k = 0 then acc else go (Z.mul_int acc 10) (k - 1) in
        go Z.one k
      in
      let scale = pow10 (String.length frac) in
      let whole = Z.of_string (if int_part = "" || int_part = "-" || int_part = "+" then int_part ^ "0" else int_part) in
      let fnum = Z.of_string frac in
      let neg = String.length s > 0 && s.[0] = '-' in
      let combined = Z.add (Z.mul (Z.abs whole) scale) fnum in
      mk (if neg then Z.neg combined else combined) scale
    end

let to_string t =
  if Z.equal t.den Z.one then Z.to_string t.num
  else Z.to_string t.num ^ "/" ^ Z.to_string t.den

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_float t =
  (* good enough for display: go through strings only when huge *)
  match (Z.to_int_opt t.num, Z.to_int_opt t.den) with
  | Some n, Some d -> float_of_int n /. float_of_int d
  | _ -> float_of_string (Z.to_string t.num) /. float_of_string (Z.to_string t.den)

let compare a b = Z.compare (Z.mul a.num b.den) (Z.mul b.num a.den)
let equal a b = Z.equal a.num b.num && Z.equal a.den b.den
let sign t = Z.sign t.num
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg t = { t with num = Z.neg t.num }
let abs t = { t with num = Z.abs t.num }

let add a b =
  if Z.equal a.den b.den then mk (Z.add a.num b.num) a.den
  else mk (Z.add (Z.mul a.num b.den) (Z.mul b.num a.den)) (Z.mul a.den b.den)

let sub a b =
  if Z.equal a.den b.den then mk (Z.sub a.num b.num) a.den
  else mk (Z.sub (Z.mul a.num b.den) (Z.mul b.num a.den)) (Z.mul a.den b.den)

let mul a b = mk (Z.mul a.num b.num) (Z.mul a.den b.den)
let div a b = mk (Z.mul a.num b.den) (Z.mul a.den b.num)
let inv t = mk t.den t.num
let mul_int t v = mk (Z.mul_int t.num v) t.den

let average a b = mk (Z.add (Z.mul a.num b.den) (Z.mul b.num a.den)) (Z.mul Z.two (Z.mul a.den b.den))

let encode w t =
  let module W = Aqv_util.Wire in
  W.u8 w (if Z.sign t.num < 0 then 1 else 0);
  W.bytes w (Z.to_bytes_be (Z.abs t.num));
  W.bytes w (Z.to_bytes_be t.den)

let decode r =
  let module W = Aqv_util.Wire in
  let neg_sign = W.read_u8 r = 1 in
  let n = Z.of_bytes_be (W.read_bytes r) in
  let d = Z.of_bytes_be (W.read_bytes r) in
  (* wire input is untrusted: a zero denominator is malformed input,
     reported like every other decode error, not [Division_by_zero] *)
  if Z.is_zero d then failwith "Rational: zero denominator";
  mk (if neg_sign then Z.neg n else n) d
