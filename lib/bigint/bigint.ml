(* Sign + magnitude in base 2^26, with a native-int fast path.

   Invariants:
   - [S v] may hold any native int.
   - [B { sign; mag }] only holds values whose magnitude does NOT fit a
     native int, so every value has a unique representation. [mag] is
     little-endian with a non-zero top limb, and [sign] is [1] or [-1].
   The 2^26 base keeps every intermediate product of two limbs plus
   carries below 2^53, well inside OCaml's 63-bit native ints. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = S of int | B of { sign : int; mag : int array }

let zero = S 0
let one = S 1
let two = S 2

(* ------------------------------------------------------------------ *)
(* Magnitude (int array) primitives. All arrays are little-endian,     *)
(* limbs in [0, base). A "normalized" magnitude has no zero top limb.  *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_is_zero a = Array.length a = 0

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

(* v >= 0 *)
let mag_of_abs_int v =
  if v = 0 then [||]
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let n = count 0 v in
    let a = Array.make n 0 in
    let rec fill i v =
      if v <> 0 then begin
        a.(i) <- v land mask;
        fill (i + 1) (v lsr limb_bits)
      end
    in
    fill 0 v;
    a
  end

let limb_bit_count v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let mag_bit_length a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_bit_count a.(n - 1)

(* Some v iff the magnitude is <= max_int. *)
let mag_to_int_opt a =
  if mag_bit_length a > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lm = if la > lb then la else lb in
  let r = Array.make (lm + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lm - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lm) <- !carry;
  mag_normalize r

(* a - b, requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let s = a.(i) - y - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        r.(i + lb) <- !carry
      end
    done;
    mag_normalize r
  end

(* Karatsuba above ~32 limbs (~832 bits): splits at half the shorter
   operand and recombines with three recursive products. Below the
   threshold, schoolbook wins on constant factors. *)
let karatsuba_threshold = 32

let mag_low a k = mag_normalize (Array.sub a 0 (min k (Array.length a)))
let mag_high a k = if Array.length a <= k then [||] else Array.sub a k (Array.length a - k)

let mag_shift_limbs a k =
  if mag_is_zero a then [||]
  else begin
    let r = Array.make (Array.length a + k) 0 in
    Array.blit a 0 r k (Array.length a);
    r
  end

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mag_mul_school a b
  else begin
    let k = (min la lb + 1) / 2 in
    let a0 = mag_low a k and a1 = mag_high a k in
    let b0 = mag_low b k and b1 = mag_high b k in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    (* z1 = (a0 + a1)(b0 + b1) - z0 - z2 *)
    let z1 = mag_sub (mag_sub (mag_mul (mag_add a0 a1) (mag_add b0 b1)) z0) z2 in
    mag_add (mag_add z0 (mag_shift_limbs z1 k)) (mag_shift_limbs z2 (2 * k))
  end

let mag_shift_left a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let s = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- s land mask;
        carry := s lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    mag_normalize r
  end

let mag_shift_right a k =
  if mag_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      mag_normalize r
    end
  end

(* Knuth algorithm D (cf. Hacker's Delight divmnu). *)
let mag_divmod u v =
  let n = Array.length v in
  if n = 0 then raise Division_by_zero;
  if mag_compare u v < 0 then ([||], Array.copy u)
  else if n = 1 then begin
    let d = v.(0) in
    let m = Array.length u in
    let q = Array.make m 0 in
    let r = ref 0 in
    for i = m - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor u.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (mag_normalize q, mag_of_abs_int !r)
  end
  else begin
    let m = Array.length u in
    let shift = limb_bits - limb_bit_count v.(n - 1) in
    let vn = mag_shift_left v shift in
    let un = Array.make (m + 1) 0 in
    let u' = mag_shift_left u shift in
    Array.blit u' 0 un 0 (Array.length u');
    let q = Array.make (m - n + 1) 0 in
    for j = m - n downto 0 do
      let top = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (top / vn.(n - 1)) in
      let rhat = ref (top mod vn.(n - 1)) in
      let refine = ref true in
      while
        !refine && (!qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then refine := false
      done;
      (* multiply and subtract *)
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) in
        let t = un.(i + j) - !borrow - (p land mask) in
        un.(i + j) <- t land mask;
        borrow := (p lsr limb_bits) - (t asr limb_bits)
      done;
      let t = un.(j + n) - !borrow in
      un.(j + n) <- t land mask;
      if t < 0 then begin
        (* qhat was one too large: add v back *)
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = un.(i + j) + vn.(i) + !carry in
          un.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry) land mask
      end;
      q.(j) <- !qhat
    done;
    let r = mag_normalize (Array.sub un 0 n) in
    (mag_normalize q, mag_shift_right r shift)
  end

(* ------------------------------------------------------------------ *)
(* Canonical constructors                                              *)
(* ------------------------------------------------------------------ *)

let is_min_int_mag mag =
  (* |min_int| = 2^62 = limb 2, bit 10 *)
  Array.length mag = 3 && mag.(0) = 0 && mag.(1) = 0 && mag.(2) = 1 lsl 10

let make s mag =
  if mag_is_zero mag then S 0
  else
    match mag_to_int_opt mag with
    | Some v -> S (if s < 0 then -v else v)
    | None ->
      if s < 0 && is_min_int_mag mag then S min_int
      else B { sign = (if s < 0 then -1 else 1); mag }

let of_int v = S v

let sign = function
  | S v -> compare v 0
  | B b -> b.sign

let is_zero t = t = S 0

let to_mag = function
  | S v ->
    if v = min_int then
      (* |min_int| = 2^62: one bit in limb 62/26 = 2, position 10 *)
      mag_normalize [| 0; 0; 1 lsl 10 |]
    else mag_of_abs_int (abs v)
  | B b -> b.mag

let to_int_opt = function
  | S v -> Some v
  | B _ -> None

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let compare a b =
  match (a, b) with
  | S x, S y -> compare x y
  | S _, B y -> -y.sign
  | B x, S _ -> x.sign
  | B x, B y ->
    if x.sign <> y.sign then compare x.sign y.sign
    else if x.sign > 0 then mag_compare x.mag y.mag
    else mag_compare y.mag x.mag

let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let neg = function
  | S v when v <> min_int -> S (-v)
  | t ->
    let s = sign t in
    if s = 0 then S 0 else make (-s) (to_mag t)

let abs t = if sign t < 0 then neg t else t

let signed_add sa ma sb mb =
  if sa = 0 then make sb mb
  else if sb = 0 then make sa ma
  else if sa = sb then make sa (mag_add ma mb)
  else begin
    let c = mag_compare ma mb in
    if c = 0 then S 0
    else if c > 0 then make sa (mag_sub ma mb)
    else make sb (mag_sub mb ma)
  end

let add a b =
  match (a, b) with
  | S x, S y ->
    let s = x + y in
    if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then
      signed_add (Stdlib.compare x 0) (to_mag a) (Stdlib.compare y 0) (to_mag b)
    else S s
  | _ -> signed_add (sign a) (to_mag a) (sign b) (to_mag b)

let sub a b =
  match (a, b) with
  | S x, S y ->
    let s = x - y in
    if (x >= 0) <> (y >= 0) && (s >= 0) <> (x >= 0) then
      signed_add (Stdlib.compare x 0) (to_mag a) (- Stdlib.compare y 0) (to_mag b)
    else S s
  | _ -> signed_add (sign a) (to_mag a) (- sign b) (to_mag b)

let mul a b =
  match (a, b) with
  | S 0, _ | _, S 0 -> S 0
  | S x, S y when x <> min_int && y <> min_int ->
    let ax = Stdlib.abs x and ay = Stdlib.abs y in
    if ay <= max_int / ax then S (x * y)
    else make (Stdlib.compare x 0 * Stdlib.compare y 0) (mag_mul (mag_of_abs_int ax) (mag_of_abs_int ay))
  | _ -> make (sign a * sign b) (mag_mul (to_mag a) (to_mag b))

let succ t = add t one
let pred t = sub t one
let mul_int t v = mul t (S v)
let add_int t v = add t (S v)

let divmod a b =
  match (a, b) with
  | _, S 0 -> raise Division_by_zero
  | S x, S y when x <> min_int && y <> min_int -> (S (x / y), S (x mod y))
  | _ ->
    let sa = sign a and sb = sign b in
    if sa = 0 then (S 0, S 0)
    else begin
      let q, r = mag_divmod (to_mag a) (to_mag b) in
      (make (sa * sb) q, make sa r)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if sign r < 0 then add r (abs b) else r

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  match t with
  | S 0 -> S 0
  | _ -> make (sign t) (mag_shift_left (to_mag t) k)

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  match t with
  | S 0 -> S 0
  | _ -> make (sign t) (mag_shift_right (to_mag t) k)

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)
(* ------------------------------------------------------------------ *)

let bit_length t = mag_bit_length (to_mag t)

let testbit t i =
  if i < 0 then invalid_arg "Bigint.testbit";
  let mag = to_mag t in
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length mag && (mag.(limb) lsr bit) land 1 = 1

let is_even t =
  match t with
  | S v -> v land 1 = 0
  | B b -> b.mag.(0) land 1 = 0

(* ------------------------------------------------------------------ *)
(* Number theory                                                       *)
(* ------------------------------------------------------------------ *)

let rec gcd_aux a b = if is_zero b then a else gcd_aux b (erem a b)
let gcd a b = gcd_aux (abs a) (abs b)

let mod_inv a m =
  let m = abs m in
  let a = erem a m in
  let rec go old_r r old_s s =
    if is_zero r then
      if equal old_r one then erem old_s m else raise Not_found
    else begin
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s))
    end
  in
  go a m one zero

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)
(* ------------------------------------------------------------------ *)

let ten_7 = 10_000_000

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_sign = s.[0] = '-' in
  let start = if neg_sign || s.[0] = '+' then 1 else 0 in
  if len - start = 0 then invalid_arg "Bigint.of_string: empty";
  let hex =
    len - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
  in
  let v = ref zero in
  if hex then
    for i = start + 2 to len - 1 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Bigint.of_string: bad hex digit"
      in
      if d >= 0 then v := add_int (shift_left !v 4) d
    done
  else
    for i = start to len - 1 do
      match s.[i] with
      | '0' .. '9' as c -> v := add_int (mul_int !v 10) (Char.code c - Char.code '0')
      | '_' -> ()
      | _ -> invalid_arg "Bigint.of_string: bad digit"
    done;
  if neg_sign then neg !v else !v

let to_string t =
  match t with
  | S v -> string_of_int v
  | B _ ->
    let neg_sign = sign t < 0 in
    let buf = Buffer.create 32 in
    let chunk = [| ten_7 |] (* 10^7 < 2^26: single limb *) in
    let rec go mag =
      match mag_to_int_opt mag with
      | Some v when v < ten_7 -> Buffer.add_string buf (string_of_int v)
      | _ ->
        let q, r = mag_divmod mag chunk in
        go q;
        let rv = match mag_to_int_opt r with Some v -> v | None -> assert false in
        Buffer.add_string buf (Printf.sprintf "%07d" rv)
    in
    go (to_mag t);
    (if neg_sign then "-" else "") ^ Buffer.contents buf


(* ------------------------------------------------------------------ *)
(* Bytes / random                                                      *)
(* ------------------------------------------------------------------ *)

(* Both conversions pack bits straight between bytes and 26-bit limbs
   through a small accumulator: linear in the length. *)
let of_bytes_be s =
  let len = String.length s in
  if len <= 7 then begin
    (* 56 bits fit a native int: no limb array *)
    let v = ref 0 in
    for i = 0 to len - 1 do
      v := (!v lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    S !v
  end
  else begin
    let a = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
    let acc = ref 0 and nacc = ref 0 and k = ref 0 in
    for i = len - 1 downto 0 do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !nacc);
      nacc := !nacc + 8;
      if !nacc >= limb_bits then begin
        a.(!k) <- !acc land mask;
        incr k;
        acc := !acc lsr limb_bits;
        nacc := !nacc - limb_bits
      end
    done;
    if !nacc > 0 then a.(!k) <- !acc;
    make 1 (mag_normalize a)
  end

let to_bytes_be ?width t =
  if sign t < 0 then invalid_arg "Bigint.to_bytes_be: negative";
  let nbytes = Stdlib.max 1 ((bit_length t + 7) / 8) in
  let out_len =
    match width with
    | None -> nbytes
    | Some w ->
      if nbytes > w && not (is_zero t) then invalid_arg "Bigint.to_bytes_be: width too small";
      w
  in
  let b = Bytes.make out_len '\000' in
  (* every byte left of the last [nbytes] is zero, so stopping at index
     0 loses nothing *)
  let i = ref (out_len - 1) in
  (match t with
  | S v ->
    let v = ref v in
    while !v <> 0 && !i >= 0 do
      Bytes.unsafe_set b !i (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8;
      decr i
    done
  | B { mag; _ } ->
    let acc = ref 0 and nacc = ref 0 in
    for k = 0 to Array.length mag - 1 do
      acc := !acc lor (mag.(k) lsl !nacc);
      nacc := !nacc + limb_bits;
      while !nacc >= 8 && !i >= 0 do
        Bytes.unsafe_set b !i (Char.unsafe_chr (!acc land 0xff));
        acc := !acc lsr 8;
        nacc := !nacc - 8;
        decr i
      done
    done;
    if !nacc > 0 && !i >= 0 then Bytes.unsafe_set b !i (Char.unsafe_chr !acc));
  Bytes.unsafe_to_string b

let random_bits rng bits =
  if bits < 0 then invalid_arg "Bigint.random_bits";
  if bits = 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let a = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      a.(i) <- Aqv_util.Prng.bits rng limb_bits
    done;
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    a.(nlimbs - 1) <- a.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    make 1 (mag_normalize a)
  end

let random_below rng bound =
  if sign bound <= 0 then invalid_arg "Bigint.random_below";
  let bits = bit_length bound in
  let rec go () =
    let v = random_bits rng bits in
    if compare v bound < 0 then v else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Montgomery exponentiation (odd modulus)                             *)
(* ------------------------------------------------------------------ *)

(* The Montgomery product runs in C (mont_stubs.c) over native-endian
   64-bit limbs held in [Bytes.t], 8 bytes a limb, least significant
   first: [mont_mul dst a b m n0'] sets [dst] to a * b * R^-1 mod m for
   n-limb a, b < m, R = 2^(64n), n0' = -m^-1 mod 2^64. [dst] may alias
   [a] or [b]. *)
external mont_mul : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> (int64[@unboxed]) -> unit
  = "aqv_mont_mul_byte" "aqv_mont_mul"
[@@noalloc]

(* One context per modulus, computed once. It is never mutated after
   [mont] returns, so every domain signing under one key shares it;
   all scratch space is allocated per call. *)
type mont = {
  mm : Bytes.t;  (* modulus, n 64-bit limbs, top limb non-zero *)
  n0' : int64;  (* -m^-1 mod 2^64 *)
  r2 : Bytes.t;  (* R^2 mod m, R = 2^(64n): enters the domain in one multiply *)
  modulus : t;
}

(* The C kernel keeps its accumulator in a stack array of 128 limbs. *)
let mont_max_bits = 8192

(* Value <-> n 64-bit limbs, through the big-endian byte conversions:
   limb i is the big-endian word at byte 8 (n - 1 - i). *)
let limbs64_of t n =
  let s = to_bytes_be ~width:(8 * n) t in
  let dst = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_ne dst (8 * i) (String.get_int64_be s (8 * (n - 1 - i)))
  done;
  dst

let of_limbs64 src =
  let n = Bytes.length src / 8 in
  let s = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_be s (8 * (n - 1 - i)) (Bytes.get_int64_ne src (8 * i))
  done;
  of_bytes_be (Bytes.unsafe_to_string s)

let mont modulus =
  if sign modulus <= 0 || is_even modulus || equal modulus one then
    invalid_arg "Bigint.mont: modulus must be odd and > 1";
  if bit_length modulus > mont_max_bits then invalid_arg "Bigint.mont: modulus above 8192 bits";
  let n = (bit_length modulus + 63) / 64 in
  let mm = limbs64_of modulus n in
  let m0 = Bytes.get_int64_ne mm 0 in
  (* Newton iteration for the inverse of m0 modulo 2^64: m0 * m0 = 1
     mod 8, and each step doubles the correct low bits (3 -> 96) *)
  let inv = ref m0 in
  for _ = 1 to 5 do
    inv := Int64.mul !inv (Int64.sub 2L (Int64.mul m0 !inv))
  done;
  let r2 = erem (shift_left one (128 * n)) modulus in
  { mm; n0' = Int64.neg !inv; r2 = limbs64_of r2 n; modulus }

let mag_bit e i = (e.(i / limb_bits) lsr (i mod limb_bits)) land 1

(* Above this many exponent bits, a width-5 sliding window (16 odd
   powers) beats left-to-right square-and-multiply. *)
let short_exp_bits = 20

let mod_pow_mont ctx ~base:b ~exp =
  if sign exp < 0 then invalid_arg "Bigint.mod_pow_mont: negative exponent";
  let e = to_mag exp in
  let bits = mag_bit_length e in
  if bits = 0 then one
  else begin
    let m = ctx.mm and n0' = ctx.n0' in
    let len = Bytes.length m in
    let b = if sign b >= 0 && compare b ctx.modulus < 0 then b else erem b ctx.modulus in
    let x = limbs64_of b (len / 8) in
    mont_mul x x ctx.r2 m n0';
    let acc = Bytes.create len in
    if bits <= short_exp_bits then begin
      Bytes.blit x 0 acc 0 len;
      for i = bits - 2 downto 0 do
        mont_mul acc acc acc m n0';
        if mag_bit e i = 1 then mont_mul acc acc x m n0'
      done
    end
    else begin
      (* tbl.(k) = x^(2k+1) *)
      let tbl = Array.make 16 x in
      mont_mul acc x x m n0';
      for k = 1 to 15 do
        let p = Bytes.create len in
        mont_mul p tbl.(k - 1) acc m n0';
        tbl.(k) <- p
      done;
      (* the top bit is set, so the first window seeds acc *)
      let first = ref true in
      let i = ref (bits - 1) in
      while !i >= 0 do
        if mag_bit e !i = 0 then begin
          mont_mul acc acc acc m n0';
          decr i
        end
        else begin
          let l = ref (if !i >= 4 then !i - 4 else 0) in
          while mag_bit e !l = 0 do
            incr l
          done;
          let w = ref 0 in
          for k = !i downto !l do
            w := (!w lsl 1) lor mag_bit e k
          done;
          if !first then begin
            Bytes.blit tbl.(!w lsr 1) 0 acc 0 len;
            first := false
          end
          else begin
            for _ = !l to !i do
              mont_mul acc acc acc m n0'
            done;
            mont_mul acc acc tbl.(!w lsr 1) m n0'
          end;
          i := !l - 1
        end
      done
    end;
    (* leave the domain: multiply by the literal 1 *)
    Bytes.fill x 0 len '\000';
    Bytes.set_int64_ne x 0 1L;
    mont_mul acc acc x m n0';
    of_limbs64 acc
  end

let mod_pow ~base:b ~exp ~modulus =
  if sign exp < 0 then invalid_arg "Bigint.mod_pow: negative exponent";
  if sign modulus <= 0 then invalid_arg "Bigint.mod_pow: modulus <= 0";
  if equal modulus one then S 0
  else if is_zero exp then one
  else if (not (is_even modulus)) && bit_length modulus <= mont_max_bits then
    mod_pow_mont (mont modulus) ~base:b ~exp
  else begin
    let b = erem b modulus in
    let bl = bit_length exp in
    let acc = ref one in
    for i = bl - 1 downto 0 do
      acc := erem (mul !acc !acc) modulus;
      if testbit exp i then acc := erem (mul !acc b) modulus
    done;
    !acc
  end
