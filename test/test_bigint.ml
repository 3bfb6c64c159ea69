(* Tests for the arbitrary-precision integer substrate.

   Strategy: (1) small values must agree exactly with native int
   arithmetic; (2) large values must satisfy the ring axioms and the
   division identity; (3) targeted regression cases around the
   small/big representation boundary and the Knuth-D fixup path. *)

module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng
module Bigint_ref = Aqv_ref.Bigint_ref
module Util_ref = Aqv_ref.Util_ref

let check = Alcotest.check
let zt = Alcotest.testable (fun ppf z -> Format.pp_print_string ppf (Z.to_string z)) Z.equal

(* [long_factor] multiplies [count] under QCHECK_LONG=1 *)
let qtest ?(count = 1000) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

(* Generator for bigints of widely varying magnitude. *)
let gen_z =
  QCheck.Gen.(
    let small = map Z.of_int int in
    let big =
      map2
        (fun bits seed ->
          let rng = Prng.create (Int64.of_int seed) in
          (* up to ~2400 bits: comfortably past the Karatsuba threshold *)
          let v = Z.random_bits rng (1 + abs bits mod 2400) in
          if seed land 1 = 0 then v else Z.neg v)
        int int
    in
    oneof [ small; big ])

let arb_z = QCheck.make ~print:Z.to_string gen_z

let arb_z_pair = QCheck.pair arb_z arb_z
let arb_z_triple = QCheck.triple arb_z arb_z arb_z

(* ------------------------- small-int agreement --------------------- *)

let small_pairs =
  let vs = [ 0; 1; -1; 2; -2; 7; -7; 100; -100; 65535; 1 lsl 30; -(1 lsl 30); max_int; min_int; max_int - 1; min_int + 1 ] in
  List.concat_map (fun a -> List.map (fun b -> (a, b)) vs) vs

let test_small_add_sub_mul () =
  List.iter
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      (* compute the reference in Z to avoid native overflow *)
      let ref_add = Z.add za zb and ref_sub = Z.sub za zb in
      (* identity checks instead: (a+b)-b = a and (a-b)+b = a *)
      check zt "add-sub" za (Z.sub ref_add zb);
      check zt "sub-add" za (Z.add ref_sub zb))
    small_pairs

let test_small_compare () =
  List.iter
    (fun (a, b) ->
      check Alcotest.int
        (Printf.sprintf "compare %d %d" a b)
        (compare a b)
        (Z.compare (Z.of_int a) (Z.of_int b)))
    small_pairs

let test_small_divmod () =
  List.iter
    (fun (a, b) ->
      if b <> 0 && not (a = min_int || b = min_int) then begin
        let q, r = (Z.div (Z.of_int a) (Z.of_int b), Z.rem (Z.of_int a) (Z.of_int b)) in
        check zt (Printf.sprintf "q %d/%d" a b) (Z.of_int (a / b)) q;
        check zt (Printf.sprintf "r %d/%d" a b) (Z.of_int (a mod b)) r
      end)
    small_pairs

let test_to_int_roundtrip () =
  List.iter
    (fun v ->
      check Alcotest.(option int) "roundtrip" (Some v) (Z.to_int_opt (Z.of_int v)))
    [ 0; 1; -1; max_int; min_int; 42 ]

(* ------------------------------ axioms ----------------------------- *)

let prop_add_comm = qtest "add commutative" arb_z_pair (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a))

let prop_add_assoc =
  qtest "add associative" arb_z_triple (fun (a, b, c) ->
      Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)))

let prop_mul_comm = qtest "mul commutative" arb_z_pair (fun (a, b) -> Z.equal (Z.mul a b) (Z.mul b a))

let prop_mul_assoc =
  qtest "mul associative" ~count:300 arb_z_triple (fun (a, b, c) ->
      Z.equal (Z.mul (Z.mul a b) c) (Z.mul a (Z.mul b c)))

let prop_distrib =
  qtest "distributivity" ~count:300 arb_z_triple (fun (a, b, c) ->
      Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let prop_sub_inverse = qtest "a-b+b=a" arb_z_pair (fun (a, b) -> Z.equal a (Z.add (Z.sub a b) b))
let prop_neg_involutive = qtest "neg involutive" arb_z (fun a -> Z.equal a (Z.neg (Z.neg a)))

let prop_abs_sign =
  qtest "abs and sign" arb_z (fun a ->
      let s = Z.sign a in
      Z.equal a (Z.mul (Z.of_int s) (Z.abs a)) && (s = 0) = Z.is_zero a)

let prop_divmod_identity =
  qtest "divmod identity" arb_z_pair (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = (Z.div a b, Z.rem a b) in
      Z.equal a (Z.add (Z.mul q b) r)
      && Z.compare (Z.abs r) (Z.abs b) < 0
      && (Z.is_zero r || Z.sign r = Z.sign a))

let prop_erem_range =
  qtest "erem in [0,|b|)" arb_z_pair (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let r = Z.erem a b in
      Z.sign r >= 0 && Z.compare r (Z.abs b) < 0
      && Z.is_zero (Z.erem (Z.sub a r) b))

let prop_string_roundtrip =
  qtest "to_string/of_string" arb_z (fun a -> Z.equal a (Z.of_string (Z.to_string a)))

let prop_compare_consistent =
  qtest "compare antisymmetric" arb_z_pair (fun (a, b) ->
      Z.compare a b = - Z.compare b a && Z.equal a b = (Z.compare a b = 0))

let prop_shift_left_mul =
  qtest "shift_left = mul by 2^k" ~count:300
    QCheck.(pair arb_z (int_bound 100))
    (fun (a, k) ->
      let p = Z.mul a (Z.mod_pow ~base:Z.two ~exp:(Z.of_int k) ~modulus:(Z.shift_left Z.one 200)) in
      (* only valid when 2^k fits under the modulus; k <= 100 < 200 bits *)
      Z.equal (Z.shift_left a k) p)

let prop_shift_right_div =
  qtest "shift_right = magnitude div 2^k" ~count:300
    QCheck.(pair arb_z (int_bound 100))
    (fun (a, k) ->
      let mag_q = Z.div (Z.abs a) (Z.shift_left Z.one k) in
      Z.equal (Z.abs (Z.shift_right a k)) mag_q)

let prop_bit_length =
  qtest "bit_length bounds" arb_z (fun a ->
      QCheck.assume (not (Z.is_zero a));
      let bl = Z.bit_length a in
      let lo = Z.shift_left Z.one (bl - 1) and hi = Z.shift_left Z.one bl in
      Z.compare (Z.abs a) lo >= 0 && Z.compare (Z.abs a) hi < 0)

let prop_testbit =
  qtest "testbit reconstructs" ~count:200 arb_z (fun a ->
      let bl = Z.bit_length a in
      QCheck.assume (bl <= 300);
      let v = ref (Z.of_int 0) in
      for i = bl - 1 downto 0 do
        v := Z.add (Z.shift_left !v 1) (if Bigint_ref.testbit a i then Z.one else Z.of_int 0)
      done;
      Z.equal !v (Z.abs a))

let prop_bytes_roundtrip =
  qtest "bytes_be roundtrip" arb_z (fun a ->
      let a = Z.abs a in
      Z.equal a (Z.of_bytes_be (Z.to_bytes_be a)))

let prop_bytes_width =
  qtest "bytes_be width pads" ~count:200 arb_z (fun a ->
      let a = Z.abs a in
      let w = ((Z.bit_length a + 7) / 8) + 3 in
      let s = Z.to_bytes_be ~width:w a in
      String.length s = w && Z.equal a (Z.of_bytes_be s))

(* Every length 0-100 with a random run of leading zero bytes, every
   width from -1 to len + 1 and none, and the negated value: the limb
   packing must return the same bytes, or raise Invalid_argument
   exactly when the byte-at-a-time reference does. *)
let prop_bytes_match_ref =
  let outcome f = match f () with s -> Some s | exception Invalid_argument _ -> None in
  qtest "bytes_be = byte-at-a-time reference" ~count:10 QCheck.int (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let ok = ref true in
      for len = 0 to 100 do
        let zeros = if Prng.bool rng then 0 else Prng.int rng (len + 1) in
        let s = String.make zeros '\000' ^ Util_ref.prng_bytes rng (len - zeros) in
        let v = Z.of_bytes_be s in
        if not (Z.equal v (Bigint_ref.of_bytes_be s)) then ok := false;
        let widths = None :: List.init (len + 3) (fun w -> Some (w - 1)) in
        List.iter
          (fun x ->
            List.iter
              (fun width ->
                if
                  outcome (fun () -> Z.to_bytes_be ?width x)
                  <> outcome (fun () -> Bigint_ref.to_bytes_be ?width x)
                then ok := false)
              widths)
          (if Z.is_zero v then [ v ] else [ v; Z.neg v ])
      done;
      !ok)

let prop_gcd =
  qtest "gcd divides and is max" ~count:300 arb_z_pair (fun (a, b) ->
      let g = Z.gcd a b in
      if Z.is_zero g then Z.is_zero a && Z.is_zero b
      else
        Z.is_zero (Z.rem a g) && Z.is_zero (Z.rem b g)
        && Z.sign g > 0)

let prop_is_even = qtest "is_even matches rem 2" arb_z (fun a -> Z.is_even a = Z.is_zero (Z.rem a Z.two))

(* --------------------------- modular stuff -------------------------- *)

let gen_modulus =
  QCheck.Gen.(
    map2
      (fun bits seed ->
        let rng = Prng.create (Int64.of_int seed) in
        let v = Z.random_bits rng (2 + abs bits mod 200) in
        Z.add v Z.two (* >= 2 *))
      int int)

let arb_modulus = QCheck.make ~print:Z.to_string gen_modulus

let naive_mod_pow b e m =
  let rec go acc e =
    if Z.is_zero e then acc
    else go (Z.erem (Z.mul acc b) m) (Z.pred e)
  in
  go Z.one e

let prop_mod_pow_matches_naive =
  qtest "mod_pow = naive (small exp)" ~count:300
    QCheck.(triple arb_z (int_bound 40) arb_modulus)
    (fun (b, e, m) ->
      Z.equal
        (Z.mod_pow ~base:b ~exp:(Z.of_int e) ~modulus:m)
        (naive_mod_pow (Z.erem b m) (Z.of_int e) m))

let prop_mod_pow_laws =
  qtest "b^(e1+e2) = b^e1 * b^e2 mod m" ~count:200
    QCheck.(quad arb_z (int_bound 1000) (int_bound 1000) arb_modulus)
    (fun (b, e1, e2, m) ->
      let p1 = Z.mod_pow ~base:b ~exp:(Z.of_int e1) ~modulus:m in
      let p2 = Z.mod_pow ~base:b ~exp:(Z.of_int e2) ~modulus:m in
      let p12 = Z.mod_pow ~base:b ~exp:(Z.of_int (e1 + e2)) ~modulus:m in
      Z.equal p12 (Z.erem (Z.mul p1 p2) m))

let test_mod_pow_fermat () =
  (* Fermat's little theorem for a few known primes, odd (Montgomery)
     and the even-modulus fallback path via modulus 2^k. *)
  let p = Z.of_string "1000000007" in
  let a = Z.of_string "123456789123456789" in
  check zt "a^(p-1) = 1 mod p" Z.one (Z.mod_pow ~base:a ~exp:(Z.pred p) ~modulus:p);
  let p2 = Z.of_string "170141183460469231731687303715884105727" (* 2^127 - 1, prime *) in
  check zt "mersenne fermat" Z.one (Z.mod_pow ~base:(Z.of_int 3) ~exp:(Z.pred p2) ~modulus:p2)

let test_mod_pow_even_modulus () =
  let m = Z.shift_left Z.one 64 in
  let b = Z.of_string "0xdeadbeefcafebabe1234" in
  check zt "even modulus path" (naive_mod_pow (Z.erem b m) (Z.of_int 13) m)
    (Z.mod_pow ~base:b ~exp:(Z.of_int 13) ~modulus:m)

(* ---------------------- Montgomery edge cases ---------------------- *)

(* Odd moduli of 1-40 limbs: a full top limb, a top limb near 2^26
   (the final-subtract path is hot there), or any bit length. *)
let gen_odd_modulus rng =
  let limbs = 1 + Prng.int rng 40 in
  let bits = 26 * limbs in
  let m =
    match Prng.int rng 3 with
    | 0 -> Z.add (Z.shift_left Z.one (bits - 1)) (Z.random_bits rng (bits - 1))
    | 1 -> Z.sub (Z.shift_left Z.one bits) (Z.random_bits rng (1 + Prng.int rng 30))
    | _ -> Z.random_bits rng (bits - Prng.int rng 26)
  in
  let m = if Z.is_even m then Z.succ m else m in
  if Z.compare m Z.one <= 0 then Z.of_int 3 else m

let gen_edge_exp rng =
  match Prng.int rng 9 with
  | 0 -> Z.of_int 0
  | 1 -> Z.one
  | 2 -> Z.two
  | 3 -> Z.add (Z.shift_left Z.one 19) (Z.random_bits rng 19) (* 20 bits: last short path *)
  | 4 -> Z.add (Z.shift_left Z.one 20) (Z.random_bits rng 20) (* 21 bits: first window *)
  | 5 -> Z.of_int 65537
  | 6 -> Z.pred (Z.shift_left Z.one (1 + Prng.int rng 300)) (* all ones *)
  | 7 ->
    (* long zero runs between short bursts *)
    let burst () = Z.random_bits rng 6 in
    Z.add (Z.shift_left (burst ()) (40 + Prng.int rng 200)) (Z.add (Z.shift_left (burst ()) 30) (burst ()))
  | _ -> Z.random_bits rng (Prng.int rng 400)

let gen_edge_base rng m =
  match Prng.int rng 6 with
  | 0 -> Z.of_int 0
  | 1 -> Z.pred m
  | 2 -> Z.add m (Z.random_bits rng 100) (* >= m *)
  | 3 -> Z.neg (Z.random_below rng m)
  | 4 -> Z.one
  | _ -> Z.random_below rng m

let prop_mod_pow_mont_edges =
  qtest "mod_pow_mont = mod_pow_plain (edge cases)" ~count:400 ~long_factor:20 QCheck.int (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let m = gen_odd_modulus rng in
      let e = gen_edge_exp rng in
      let b = gen_edge_base rng m in
      let expect = Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m in
      Z.equal (Z.mod_pow_mont (Z.mont m) ~base:b ~exp:e) expect
      && Z.equal (Z.mod_pow ~base:b ~exp:e ~modulus:m) expect)

let test_mod_pow_size_bound () =
  let rng = Prng.create 43L in
  let b = Z.random_bits rng 9000 in
  let e = Z.random_bits rng 24 in
  (* 8192 bits: the largest modulus the kernel takes *)
  let m8192 = Z.succ (Z.shift_left (Z.random_bits rng 8190) 1) in
  let m8192 = Z.add m8192 (Z.shift_left Z.one 8191) in
  check Alcotest.int "8192 bits" 8192 (Z.bit_length m8192);
  check zt "8192-bit kernel"
    (Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m8192)
    (Z.mod_pow_mont (Z.mont m8192) ~base:b ~exp:e);
  (* just above: mont refuses, mod_pow falls back to square-and-multiply *)
  List.iter
    (fun k ->
      let m = Z.add (Z.shift_left Z.one 8192) (Z.of_int k) in
      Alcotest.check_raises "mont refuses 8193 bits"
        (Invalid_argument "Bigint.mont: modulus above 8192 bits") (fun () -> ignore (Z.mont m));
      check zt "fallback" (Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m)
        (Z.mod_pow ~base:b ~exp:e ~modulus:m))
    [ 1; 12345 ]

let test_mont_refuses () =
  List.iter
    (fun m ->
      match Z.mont m with
      | _ -> Alcotest.failf "mont accepted %s" (Z.to_string m)
      | exception Invalid_argument _ -> ())
    [ Z.of_int 0; Z.one; Z.of_int (-1); Z.of_int (-7); Z.two; Z.shift_left Z.one 100 ];
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.mod_pow_mont: negative exponent") (fun () ->
      ignore (Z.mod_pow_mont (Z.mont (Z.of_int 7)) ~base:Z.two ~exp:(Z.of_int (-1))))

(* The kernel allocates nothing per multiply: one exponentiation costs
   the same minor words whatever the exponent's length. *)
let test_mod_pow_mont_allocation () =
  let rng = Prng.create 44L in
  let m = Z.add (Z.shift_left Z.one 255) (Z.succ (Z.shift_left (Z.random_bits rng 253) 1)) in
  let ctx = Z.mont m in
  let b = Z.random_below rng m in
  let words exp =
    ignore (Z.mod_pow_mont ctx ~base:b ~exp);
    let before = Gc.minor_words () in
    ignore (Z.mod_pow_mont ctx ~base:b ~exp);
    Gc.minor_words () -. before
  in
  let exp_of_bits k = Z.add (Z.shift_left Z.one (k - 1)) (Z.random_bits rng (k - 1)) in
  let w64 = words (exp_of_bits 64) and w1024 = words (exp_of_bits 1024) in
  check (Alcotest.float 0.) "same words at 64 and 1024 exponent bits" w64 w1024;
  if w1024 >= 1000. then Alcotest.failf "%.0f minor words for one exponentiation" w1024

(* The kernel's 64-bit limb boundaries: odd moduli of exactly 64k - 1,
   64k and 64k + 1 bits for every k = 1..128 (8193 bits is refused),
   each with an edge base and an exponent that is 0, 1, short (the
   square-and-multiply path) or long (the sliding window). *)
let boundary_modulus rng bits =
  Z.add (Z.shift_left Z.one (bits - 1)) (Z.succ (Z.shift_left (Z.random_bits rng (bits - 2)) 1))

let boundary_exp rng =
  match Prng.int rng 4 with
  | 0 -> Z.of_int 0
  | 1 -> Z.one
  | 2 -> Z.random_bits rng (1 + Prng.int rng 20)
  | _ ->
    let bits = 21 + Prng.int rng 60 in
    Z.add (Z.shift_left Z.one (bits - 1)) (Z.random_bits rng (bits - 1))

let boundary_base rng m =
  match Prng.int rng 6 with
  | 0 -> Z.of_int 0
  | 1 -> Z.one
  | 2 -> Z.pred m
  | 3 -> Z.add m (Z.random_bits rng (1 + Prng.int rng 200)) (* >= m *)
  | 4 -> Z.neg (Z.random_bits rng (1 + Prng.int rng (Z.bit_length m + 64)))
  | _ -> Z.random_below rng m

let prop_mod_pow_mont_limb_boundaries =
  qtest "mod_pow_mont = mod_pow_plain (64-bit limb boundaries)" ~count:3 ~long_factor:5
    QCheck.int (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      List.for_all
        (fun k ->
          List.for_all
            (fun bits ->
              bits > 8192
              ||
              let m = boundary_modulus rng bits in
              let b = boundary_base rng m and e = boundary_exp rng in
              Z.bit_length m = bits
              && Z.equal
                   (Z.mod_pow_mont (Z.mont m) ~base:b ~exp:e)
                   (Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m))
            [ (64 * k) - 1; 64 * k; (64 * k) + 1 ])
        (List.init 128 (fun i -> i + 1)))

(* The kernel runs its one body with a constant limb count for 4 and 8
   limbs (RSA-512's CRT halves, its modulus and DSA's p) and with the
   runtime count otherwise. Hold each shape to the plain oracle through
   the sliding window: moduli of 193-256 and 449-512 bits, and of
   257-320 bits (5 limbs, the runtime count), each with an exponent as
   long as the modulus (or all ones) and an edge base. Half the moduli
   sit just below R = 2^(64n), where the accumulator's top word and the
   final subtract are busiest. *)
let specialized_modulus rng =
  let lo, hi = match Prng.int rng 3 with 0 -> (193, 256) | 1 -> (449, 512) | _ -> (257, 320) in
  if Prng.bool rng then boundary_modulus rng (lo + Prng.int rng (hi - lo + 1))
  else Z.sub (Z.shift_left Z.one hi) (Z.succ (Z.shift_left (Z.random_bits rng (Prng.int rng 40)) 1))

let prop_mod_pow_mont_specialized =
  qtest "mod_pow_mont = mod_pow_plain (4, 5 and 8 limbs, long exponents)" ~count:150
    ~long_factor:20 QCheck.int (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let m = specialized_modulus rng in
      let bits = Z.bit_length m in
      let e =
        if Prng.int rng 4 = 0 then Z.pred (Z.shift_left Z.one bits)
        else Z.add (Z.shift_left Z.one (bits - 1)) (Z.random_bits rng (bits - 1))
      in
      let b = boundary_base rng m in
      Z.equal (Z.mod_pow_mont (Z.mont m) ~base:b ~exp:e)
        (Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m))

(* The kernel's final subtract t - m passes a borrow through a limb
   where t and m are equal only when t - m has an all-ones limb: about
   2^-64 a product on random operands, which no random test reaches. Aim
   at it. With exp = 1, mod_pow_mont's first product is
   b * (R^2 mod m) * R^-1, whose accumulator before the subtract is
   Montgomery's t = (b * r2 + Q * m) / R, Q = -b * r2 * m^-1 mod R,
   computed here in Bigint. Pick t = m + D with D's limb 1 all ones and
   a carry out of limb 0 (so t's limb 1 equals m's and limb 0 borrows),
   b = D * R^-1 mod m, and keep the b whose t lands at m + D rather than
   at D. For 4, 5 and 8 limbs. *)
let test_mont_subtract_borrow () =
  let rng = Prng.create 45L in
  let w = Z.shift_left Z.one 64 in
  let limb v j = Z.erem (Z.shift_right v (64 * j)) w in
  List.iter
    (fun limbs ->
      let r = Z.shift_left Z.one (64 * limbs) in
      (* m in [R/2, 5R/8), so that m + D stays below R: no top word *)
      let m =
        Z.add (Z.shift_right r 1) (Z.succ (Z.shift_left (Z.random_bits rng ((64 * limbs) - 5)) 1))
      in
      let r_inv = Z.mod_inv r m and m_inv = Z.mod_inv m r in
      let r2 = Z.erem (Z.mul r r) m in
      let hits = ref 0 and tries = ref 0 in
      while !hits < 8 && !tries < 500 do
        incr tries;
        let d0 = Z.sub (Z.pred w) (Z.random_below rng (limb m 0)) in
        let d =
          Z.add d0
            (Z.add (Z.shift_left (Z.pred w) 64)
               (Z.shift_left (Z.random_bits rng ((64 * limbs) - 131)) 128))
        in
        let b = Z.erem (Z.mul d r_inv) m in
        let br2 = Z.mul b r2 in
        let t = Z.div (Z.add br2 (Z.mul (Z.erem (Z.neg (Z.mul br2 m_inv)) r) m)) r in
        if Z.equal t (Z.add m d) then begin
          incr hits;
          if not (Z.equal (limb t 1) (limb m 1) && Z.compare (limb t 0) (limb m 0) < 0) then
            Alcotest.failf "%d limbs: t does not borrow through limb 1" limbs;
          check zt (Printf.sprintf "%d limbs: b^1" limbs) b
            (Z.mod_pow_mont (Z.mont m) ~base:b ~exp:Z.one)
        end
      done;
      check Alcotest.int (Printf.sprintf "%d limbs: aimed products" limbs) 8 !hits)
    [ 4; 5; 8 ]

let prop_mod_inv =
  qtest "mod_inv correct when gcd=1" ~count:300
    QCheck.(pair arb_z arb_modulus)
    (fun (a, m) ->
      QCheck.assume (Z.equal (Z.gcd a m) Z.one);
      let inv = Z.mod_inv a m in
      Z.sign inv >= 0 && Z.compare inv m < 0
      && Z.equal (Z.erem (Z.mul a inv) m) Z.one)

let test_mod_inv_not_found () =
  Alcotest.check_raises "non-invertible" Not_found (fun () ->
      ignore (Z.mod_inv (Z.of_int 6) (Z.of_int 9)))

(* ------------------------------ random ----------------------------- *)

let test_random_below_range () =
  let rng = Prng.create 77L in
  let bound = Z.of_string "123456789012345678901234567890" in
  for _ = 1 to 500 do
    let v = Z.random_below rng bound in
    if Z.sign v < 0 || Z.compare v bound >= 0 then
      Alcotest.failf "out of range: %s" (Z.to_string v)
  done

let test_random_bits_range () =
  let rng = Prng.create 78L in
  for _ = 1 to 200 do
    let v = Z.random_bits rng 100 in
    if Z.bit_length v > 100 then Alcotest.failf "too long: %s" (Z.to_string v)
  done

(* --------------------------- known values --------------------------- *)

let test_known_mul () =
  let a = Z.of_string "123456789012345678901234567890" in
  let b = Z.of_string "987654321098765432109876543210" in
  check zt "product"
    (Z.of_string "121932631137021795226185032733622923332237463801111263526900")
    (Z.mul a b)

let test_known_divmod () =
  let a = Z.of_string "10000000000000000000000000000000000000001" in
  let b = Z.of_string "333333333333333333333" in
  let q, r = (Z.div a b, Z.rem a b) in
  check zt "q" (Z.of_string "30000000000000000000") q;
  check zt "r" (Z.of_string "10000000000000000001") r

let test_hex_parse () =
  check zt "hex" (Z.of_int 255) (Z.of_string "0xff");
  check zt "hex big" (Z.of_string "340282366920938463463374607431768211455") (Z.of_string "0xffffffffffffffffffffffffffffffff");
  check zt "neg hex" (Z.of_int (-255)) (Z.of_string "-0xFF")

let test_divide_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Z.div Z.one (Z.of_int 0)))

(* Regression: the Knuth-D "add back" branch is rare; force it with a
   crafted dividend/divisor pair known to trigger qhat overestimation. *)
(* Karatsuba vs a from-scratch reference at sizes straddling the
   threshold: verify with the multiplication-free identity
   (a+b)^2 - (a-b)^2 = 4ab evaluated through the library itself, plus a
   digit-sum check against Python-style bounds via to_string length. *)
let test_karatsuba_sizes () =
  let rng = Prng.create 1234L in
  List.iter
    (fun bits ->
      let a = Z.random_bits rng bits in
      let b = Z.random_bits rng bits in
      let ab = Z.mul a b in
      let lhs = Z.sub (Z.mul (Z.add a b) (Z.add a b)) (Z.mul (Z.sub a b) (Z.sub a b)) in
      check zt (Printf.sprintf "4ab identity at %d bits" bits) (Z.mul (Z.of_int 4) ab) lhs;
      (* bit-length sanity: |ab| in [bitlen a + bitlen b - 1, bitlen a + bitlen b] *)
      if not (Z.is_zero a || Z.is_zero b) then begin
        let bl = Z.bit_length ab in
        let ba = Z.bit_length a and bb = Z.bit_length b in
        if bl < ba + bb - 1 || bl > ba + bb then
          Alcotest.failf "bit length %d out of range for %d+%d" bl ba bb
      end)
    [ 100; 700; 900; 1700; 3000; 6000 ]

let test_knuth_add_back () =
  (* u = base^4 * (base/2) , v = (base/2)*base^2 + 1 pattern *)
  let b = Z.shift_left Z.one 26 in
  let u = Z.add (Z.mul (Z.mul b b) (Z.mul b b)) (Z.mul b b) in
  let v = Z.add (Z.mul (Z.div b Z.two) (Z.mul b b)) Z.one in
  let q, r = (Z.div u v, Z.rem u v) in
  check zt "identity" u (Z.add (Z.mul q v) r);
  check Alcotest.bool "r < v" true (Z.compare r v < 0)

let () =
  Alcotest.run "aqv_bigint"
    [
      ( "small",
        [
          Alcotest.test_case "add/sub identities" `Quick test_small_add_sub_mul;
          Alcotest.test_case "compare" `Quick test_small_compare;
          Alcotest.test_case "divmod matches native" `Quick test_small_divmod;
          Alcotest.test_case "to_int roundtrip" `Quick test_to_int_roundtrip;
        ] );
      ( "axioms",
        [
          prop_add_comm;
          prop_add_assoc;
          prop_mul_comm;
          prop_mul_assoc;
          prop_distrib;
          prop_sub_inverse;
          prop_neg_involutive;
          prop_abs_sign;
          prop_divmod_identity;
          prop_erem_range;
          prop_string_roundtrip;
          prop_compare_consistent;
          prop_shift_left_mul;
          prop_shift_right_div;
          prop_bit_length;
          prop_testbit;
          prop_bytes_roundtrip;
          prop_bytes_width;
          prop_bytes_match_ref;
          prop_gcd;
          prop_is_even;
        ] );
      ( "modular",
        [
          prop_mod_pow_matches_naive;
          prop_mod_pow_laws;
          Alcotest.test_case "fermat" `Quick test_mod_pow_fermat;
          Alcotest.test_case "even modulus" `Quick test_mod_pow_even_modulus;
          prop_mod_pow_mont_edges;
          Alcotest.test_case "mont size bound" `Quick test_mod_pow_size_bound;
          Alcotest.test_case "mont refuses" `Quick test_mont_refuses;
          Alcotest.test_case "mont allocation flat" `Quick test_mod_pow_mont_allocation;
          prop_mod_inv;
          Alcotest.test_case "mod_inv not found" `Quick test_mod_inv_not_found;
          prop_mod_pow_mont_limb_boundaries;
          prop_mod_pow_mont_specialized;
          Alcotest.test_case "mont final subtract borrow" `Quick test_mont_subtract_borrow;
        ] );
      ( "random",
        [
          Alcotest.test_case "random_below range" `Quick test_random_below_range;
          Alcotest.test_case "random_bits range" `Quick test_random_bits_range;
        ] );
      ( "known",
        [
          Alcotest.test_case "big multiplication" `Quick test_known_mul;
          Alcotest.test_case "big divmod" `Quick test_known_divmod;
          Alcotest.test_case "hex parsing" `Quick test_hex_parse;
          Alcotest.test_case "divide by zero" `Quick test_divide_by_zero;
          Alcotest.test_case "knuth add-back" `Quick test_knuth_add_back;
          Alcotest.test_case "karatsuba sizes" `Quick test_karatsuba_sizes;
        ] );
    ]
