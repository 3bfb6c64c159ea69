(* Tests for the exact-numerics substrate: rational field axioms,
   linear-function algebra, the exact simplex on known LPs, and region
   classification cross-checked against dense point sampling. *)

module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Halfspace = Aqv_num.Halfspace
module Domain = Aqv_num.Domain
module Simplex = Aqv_num.Simplex
module Region = Aqv_num.Region
module Num_ref = Aqv_ref.Num_ref

let check = Alcotest.check
let qt = Alcotest.testable Q.pp Q.equal

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_q =
  QCheck.Gen.(
    map2
      (fun p q -> Q.of_ints p (1 + abs q))
      (int_range (-10000) 10000) (int_bound 999))

let arb_q = QCheck.make ~print:Q.to_string gen_q

(* ----------------------------- rational ----------------------------- *)

let test_q_basics () =
  check qt "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check qt "normalizes" (Q.of_ints 1 2) (Q.of_ints 3 6);
  check qt "neg den" (Q.of_ints (-1) 2) (Q.of_ints 1 (-2));
  check qt "mul" (Q.of_ints 1 3) (Q.mul (Q.of_ints 2 3) (Q.of_ints 1 2));
  check qt "div" (Q.of_ints 4 3) (Q.div (Q.of_ints 2 3) (Q.of_ints 1 2));
  check Alcotest.int "sign" (-1) (Q.sign (Q.of_ints (-3) 7));
  check Alcotest.string "to_string int" "5" (Q.to_string (Q.of_int 5));
  check Alcotest.string "to_string frac" "-2/3" (Q.to_string (Q.of_ints 2 (-3)))

let test_q_decimal () =
  check qt "12.5" (Q.of_ints 25 2) (Q.of_decimal "12.5");
  check qt "-0.25" (Q.of_ints (-1) 4) (Q.of_decimal "-0.25");
  check qt "3" (Q.of_int 3) (Q.of_decimal "3");
  check qt "0.125" (Q.of_ints 1 8) (Q.of_decimal "0.125")

let test_q_div_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_q_decode_zero_den () =
  (* untrusted wire bytes: 1/0 is malformed input, not Division_by_zero *)
  let w = Aqv_util.Wire.writer () in
  Aqv_util.Wire.u8 w 0;
  Aqv_util.Wire.bytes w "\x01";
  Aqv_util.Wire.bytes w "";
  Alcotest.check_raises "zero denominator" (Failure "Rational: zero denominator") (fun () ->
      ignore (Q.decode (Aqv_util.Wire.reader (Aqv_util.Wire.contents w))))

let q_field_axioms =
  qtest "field axioms" (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal a (Q.sub (Q.add a b) b)
      && (Q.sign b = 0 || Q.equal a (Q.mul (Q.div a b) b)))

let q_compare_total =
  qtest "compare total order" (QCheck.pair arb_q arb_q) (fun (a, b) ->
      Q.compare a b = -Q.compare b a
      && Q.equal a b = (Q.compare a b = 0))

let q_average_between =
  qtest "average strictly between" (QCheck.pair arb_q arb_q) (fun (a, b) ->
      QCheck.assume (not (Q.equal a b));
      let lo, hi = if Q.compare a b < 0 then (a, b) else (b, a) in
      let m = Q.average lo hi in
      Q.compare lo m < 0 && Q.compare m hi < 0)

let q_encode_roundtrip =
  qtest "wire roundtrip" arb_q (fun a ->
      let w = Aqv_util.Wire.writer () in
      Q.encode w a;
      Q.equal a (Q.decode (Aqv_util.Wire.reader (Aqv_util.Wire.contents w))))

(* ------------------------ rational vs oracle ------------------------ *)

(* [Rational] against [Rational_ref], the plain Bigint-pair
   implementation it replaced, with operands weighted at the bounds of
   its machine-word fast paths: 0, +-1, +-2^30+-1, +-2^31+-1, +-2^61,
   +-2^62, max_int, min_int and beyond 2^62. Every operation must give
   the same value, the same comparison sign and the same encoded bytes,
   and a value that fits two native ints must be structurally equal to
   [of_ints] of them (the canonical form). *)

module R = Aqv_ref.Rational_ref
module Z = Aqv_bigint.Bigint

let pow2 k = Z.shift_left Z.one k

let z_specials =
  let around k = [ Z.pred (pow2 k); pow2 k; Z.succ (pow2 k) ] in
  [ Z.of_int 0; Z.one; Z.two; Z.of_int 3; Z.of_int max_int; Z.of_int (max_int - 1) ]
  @ around 30 @ around 31 @ around 32 @ around 61 @ around 62 @ around 63
  @ [ pow2 64; Z.of_string "1237940039285380274899124224"; Z.pred (pow2 100) ]

let gen_z =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun z neg -> if neg then Z.neg z else z) (oneofl z_specials) bool);
        (2, map Z.of_int (int_range (-1000) 1000));
        ( 2,
          map2
            (fun bits width -> Z.of_int (bits asr (62 - width)))
            (map Int64.to_int int64) (int_range 0 62) );
        ( 2,
          (* a magnitude just past a fast-path bound, either sign *)
          map3
            (fun k bits neg ->
              let v = (bits land ((1 lsl k) - 1)) lor (1 lsl k) in
              Z.of_int (if neg then -v else v))
            (oneofl [ 29; 30; 31; 60; 61 ])
            (map Int64.to_int int64) bool );
        (1, oneofl [ Z.of_int min_int; Z.of_int (min_int + 1) ]);
        ( 1,
          map2
            (fun a b -> Z.mul (Z.of_int a) (Z.of_int b))
            (map Int64.to_int int64) (map Int64.to_int int64) );
      ])

(* a value as both implementations build it from one numerator and one
   non-zero denominator *)
let qr n d =
  let d = if Z.is_zero d then Z.one else d in
  (Num_ref.q_of_bigints n d, R.of_bigints n d)

let gen_qr = QCheck.Gen.map2 qr gen_z gen_z
let print_qr (q, _) = Q.to_string q
let arb_qr = QCheck.make ~print:print_qr gen_qr

(* Two thirds of the pairs share a denominator (the same-denominator
   fast paths); half of those are twins, +-(a's numerator + k), so two
   large operands meet and their sum or difference crosses a bound. *)
let arb_qr_pair =
  QCheck.make ~print:(QCheck.Print.pair print_qr print_qr)
    QCheck.Gen.(
      gen_qr >>= fun ((_, ra) as a) ->
      let twin k neg =
        let n = Z.add (R.num ra) (Z.of_int k) in
        qr (if neg then Z.neg n else n) (R.den ra)
      in
      map
        (fun b -> (a, b))
        (frequency
           [
             (1, gen_qr);
             (1, map (fun n -> qr n (R.den ra)) gen_z);
             (1, map2 twin (int_range (-3) 3) bool);
           ]))

let q_encoded q =
  let w = Aqv_util.Wire.writer () in
  Q.encode w q;
  Aqv_util.Wire.contents w

let r_encoded r =
  let w = Aqv_util.Wire.writer () in
  R.encode w r;
  Aqv_util.Wire.contents w

(* same value, same text, same bytes, canonical form *)
let agrees q r =
  Z.equal (Num_ref.q_num q) (R.num r)
  && Z.equal (Num_ref.q_den q) (R.den r)
  && String.equal (Q.to_string q) (R.to_string r)
  && String.equal (q_encoded q) (r_encoded r)
  && q = Num_ref.q_of_bigints (R.num r) (R.den r)
  &&
  match (Z.to_int_opt (R.num r), Z.to_int_opt (R.den r)) with
  | Some n, Some d when n <> min_int -> q = Q.of_ints n d
  | _ -> true

let attempt f =
  match f () with
  | v -> Ok v
  | exception Division_by_zero -> Error "Division_by_zero"
  | exception Failure m -> Error m

let same_outcome fq fr =
  match (attempt fq, attempt fr) with
  | Ok q, Ok r -> agrees q r
  | Error a, Error b -> String.equal a b
  | _ -> false

let q_oracle_binary =
  qtest ~count:3000 "binary operations = oracle" arb_qr_pair
    (fun ((qa, ra), (qb, rb)) ->
      let both fq fr = same_outcome (fun () -> fq qa qb) (fun () -> fr ra rb) in
      agrees qa ra && agrees qb rb
      && both Q.add R.add && both Q.sub R.sub && both Q.mul R.mul && both Q.div R.div
      && both Q.average R.average
      && both Q.min R.min && both Q.max R.max
      && Int.compare (Q.compare qa qb) 0 = Int.compare (R.compare ra rb) 0
      && Q.equal qa qb = R.equal ra rb)

let q_oracle_unary =
  qtest ~count:3000 "unary operations = oracle"
    (QCheck.pair arb_qr (QCheck.make (QCheck.Gen.map (fun z -> Z.to_int_opt z) gen_z)))
    (fun ((q, r), v) ->
      let both fq fr = same_outcome (fun () -> fq q) (fun () -> fr r) in
      both Q.neg R.neg && both Q.abs R.abs && both (Q.div Q.one) R.inv
      && Q.sign q = R.sign r
      && Float.equal (Q.to_float q) (R.to_float r)
      && both (fun q -> Q.decode (Aqv_util.Wire.reader (q_encoded q))) (fun r -> r)
      &&
      match v with
      | Some v ->
        both (fun q -> Q.mul q (Q.of_int v)) (fun r -> R.mul_int r v)
        && same_outcome (fun () -> Q.of_int v) (fun () -> R.of_int v)
        && same_outcome
             (fun () -> Q.of_ints v (Option.value ~default:1 (Z.to_int_opt (Num_ref.q_den q))))
             (fun () -> R.of_ints v (Option.value ~default:1 (Z.to_int_opt (R.den r))))
      | None -> true)

(* Wire forms other than the canonical one, as an untrusted peer may
   send them: unreduced fractions (scaled by up to 2^31+1), fields
   padded with up to 9 leading zero bytes, empty fields, every sign byte
   (only 1 means negative, so a zero may come as "negative zero"), and
   zero denominators. Both decoders must agree on the value, or refuse
   with the same [Failure], and leave the reader at the same place. *)
let q_oracle_decode =
  let gen =
    QCheck.Gen.(
      let field =
        map3
          (fun z scale pad ->
            if pad < 0 then ""
            else String.make pad '\x00' ^ Z.to_bytes_be (Z.abs (Z.mul z scale)))
          gen_z
          (oneofl [ Z.one; Z.two; Z.of_int 7; pow2 31; Z.succ (pow2 31) ])
          (frequency [ (1, return (-1)); (6, int_bound 9) ])
      in
      map3
        (fun sign n d ->
          let w = Aqv_util.Wire.writer () in
          Aqv_util.Wire.u8 w sign;
          Aqv_util.Wire.bytes w n;
          Aqv_util.Wire.bytes w (if String.length d mod 5 = 4 then "\x00" else d);
          Aqv_util.Wire.u8 w 42;
          Aqv_util.Wire.contents w)
        (frequency [ (2, return 0); (2, return 1); (1, int_bound 255) ])
        field field)
  in
  qtest ~count:3000 "decode of non-canonical forms = oracle"
    (QCheck.make ~print:Aqv_util.Hex.encode gen)
    (fun bytes ->
      let read decode =
        let r = Aqv_util.Wire.reader bytes in
        let v = decode r in
        (v, Aqv_util.Wire.read_u8 r)
      in
      same_outcome (fun () -> fst (read Q.decode)) (fun () -> fst (read R.decode))
      && attempt (fun () -> snd (read Q.decode)) = attempt (fun () -> snd (read R.decode)))

let q_oracle_decode_garbage =
  qtest ~count:3000 "decode of arbitrary bytes = oracle"
    QCheck.(string_gen_of_size Gen.(int_range 0 24) Gen.char)
    (fun bytes ->
      same_outcome
        (fun () -> Q.decode (Aqv_util.Wire.reader bytes))
        (fun () -> R.decode (Aqv_util.Wire.reader bytes)))

let test_q_zero_den_both_paths () =
  List.iter
    (fun num ->
      let w = Aqv_util.Wire.writer () in
      Aqv_util.Wire.u8 w 0;
      Aqv_util.Wire.bytes w num;
      Aqv_util.Wire.bytes w "\x00\x00";
      Alcotest.check_raises "zero denominator" (Failure "Rational: zero denominator") (fun () ->
          ignore (Q.decode (Aqv_util.Wire.reader (Aqv_util.Wire.contents w)))))
    [ "\x05"; "\x40\x00\x00\x00\x00\x00\x00\x00"; String.make 12 '\xff' ]

(* ------------------------------ linfun ------------------------------ *)

let test_linfun_eval () =
  (* f(x, y) = 2x - 3y + 5 *)
  let f = Linfun.of_ints [| 2; -3 |] 5 in
  check qt "f(1,1)" (Q.of_int 4) (Linfun.eval f [| Q.one; Q.one |]);
  check qt "f(0,0)" (Q.of_int 5) (Linfun.eval f [| Q.zero; Q.zero |]);
  check qt "f(1/2,1/3)" (Q.of_int 5) (Linfun.eval f [| Q.of_ints 1 2; Q.of_ints 1 3 |])

let test_linfun_sub_zero () =
  let f = Linfun.of_ints [| 2; -3 |] 5 in
  check Alcotest.bool "f - f = 0" true (Linfun.is_zero (Linfun.sub f f))

let test_linfun_dim_mismatch () =
  let f = Linfun.of_ints [| 1 |] 0 in
  Alcotest.check_raises "eval arity" (Invalid_argument "Linfun.eval: dimension") (fun () ->
      ignore (Linfun.eval f [| Q.one; Q.one |]))

let gen_linfun d =
  QCheck.Gen.(
    map2
      (fun cs c -> Linfun.make ~coeffs:(Array.of_list cs) ~const:c)
      (list_repeat d gen_q) gen_q)

let arb_linfun d =
  QCheck.make ~print:(Format.asprintf "%a" Num_ref.linfun_pp) (gen_linfun d)

let linfun_sub_eval =
  qtest "eval (f - g) = eval f - eval g"
    (QCheck.triple (arb_linfun 2) (arb_linfun 2) (QCheck.pair arb_q arb_q))
    (fun (f, g, (x, y)) ->
      let p = [| x; y |] in
      Q.equal (Linfun.eval (Linfun.sub f g) p) (Q.sub (Linfun.eval f p) (Linfun.eval g p)))

(* [Linfun.eval] sums native terms over one denominator and reduces
   once. It must give the value, in the same canonical form and with the
   same bytes, that a fold of [Q.mul] and [Q.add] over the terms gives:
   for I- and Z-form operands at the fast-path bounds, for weights over
   one shared denominator (as [Workload.weight_point] draws them), and
   for the functions both templates make of a record. *)
let folded f x =
  let acc = ref (Linfun.const f) in
  Array.iteri (fun i xi -> acc := Q.add !acc (Q.mul (Linfun.coeff f i) xi)) x;
  !acc

let arb_eval_case =
  let open QCheck.Gen in
  let module Template = Aqv_db.Template in
  let v =
    frequency
      [
        (3, map fst gen_qr);
        (2, gen_q);
        (2, map (fun k -> Q.of_ints k 1009) (int_range (-3000) 3000));
        (1, return Q.zero);
      ]
  in
  let applied template attrs =
    Template.apply template (Aqv_db.Record.make ~id:0 ~attrs:(Array.of_list attrs) ())
  in
  let case =
    frequency
      [
        (2, map2 (fun attrs x -> (applied Template.affine_1d attrs, [ x ])) (list_repeat 2 v) v);
        ( 2,
          int_range 1 4 >>= fun d ->
          map2
            (fun attrs x -> (applied (Template.linear_weights ~dims:d) attrs, x))
            (list_repeat d v) (list_repeat d v) );
        ( 1,
          int_range 0 4 >>= fun d ->
          map3
            (fun cs c x -> (Linfun.make ~coeffs:(Array.of_list cs) ~const:c, x))
            (list_repeat d v) v (list_repeat d v) );
      ]
  in
  QCheck.make
    ~print:(fun (f, x) ->
      Format.asprintf "%a at (%s)" Num_ref.linfun_pp f (String.concat ", " (List.map Q.to_string x)))
    case

let linfun_eval_fold =
  qtest ~count:3000 "eval = term-by-term fold" arb_eval_case (fun (f, x) ->
      let x = Array.of_list x in
      let got = Linfun.eval f x and want = folded f x in
      got = want && String.equal (q_encoded got) (q_encoded want))

(* [Template.score] reads a record's attributes in place; it must give
   what evaluating the function [Template.apply] builds gives, value and
   bytes, for both templates and for records with more attributes than
   the template reads. *)
let arb_score_case =
  let open QCheck.Gen in
  let module Template = Aqv_db.Template in
  let v =
    frequency
      [
        (3, map fst gen_qr);
        (2, gen_q);
        (2, map (fun k -> Q.of_ints k 1009) (int_range (-3000) 3000));
        (1, return Q.zero);
      ]
  in
  let case template need =
    int_range 0 3 >>= fun extra ->
    map2
      (fun attrs x ->
        (template, Aqv_db.Record.make ~id:0 ~attrs:(Array.of_list attrs) (), Array.of_list x))
      (list_repeat (need + extra) v)
      (list_repeat (Template.dim template) v)
  in
  QCheck.make
    ~print:(fun (t, r, x) ->
      Format.asprintf "%a on %a at (%s)" Template.pp t Aqv_db.Record.pp r
        (String.concat ", " (Array.to_list (Array.map Q.to_string x))))
    (frequency
       [
         (2, case Template.affine_1d 2);
         (2, int_range 1 4 >>= fun d -> case (Template.linear_weights ~dims:d) d);
       ])

let template_score_is_eval =
  qtest ~count:3000 "score = eval (apply ...)" arb_score_case (fun (t, r, x) ->
      let module Template = Aqv_db.Template in
      let got = Template.score t r x and want = Linfun.eval (Template.apply t r) x in
      Q.equal got want && String.equal (q_encoded got) (q_encoded want))

(* The client orders records by [Template.score_unreduced] and
   [Rational.compare_unreduced]: one integer compare over a shared
   denominator, a native cross-multiplication below 2^31, a [Bigint]
   one past it. Every way must order two records, and a record and a
   bound, exactly as [Rational.compare] orders their reduced scores.
   Cases cover both templates, weights over one shared denominator (as
   [Workload.weight_point] draws them) and over distinct ones,
   negatives, ties between records with different attributes, operands
   at 2^30 and 2^31 +- 1, and [Bigint] attributes and inputs; a record
   one attribute short must raise where [Template.score] does.
   QCHECK_LONG=1 runs twenty times the count. *)
let arb_compare_case =
  let open QCheck.Gen in
  let module Template = Aqv_db.Template in
  let module Record = Aqv_db.Record in
  let edge =
    oneofl [ 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1 ] >>= fun e ->
    oneofl [ 1; -1 ] >>= fun s ->
    oneofl [ 1; 3; 1009; (1 lsl 31) - 1; e ] >>= fun d ->
    bool >|= fun over -> if over then Q.of_ints (s * e) d else Q.of_ints s e
  in
  let bigint =
    map2
      (fun k r -> Q.of_decimal (Printf.sprintf "%s%d.%025d" (if k < 0 then "-" else "") (abs k) r))
      (int_range (-999) 999) (int_bound 1_000_000)
  in
  let v =
    frequency
      [
        (3, map fst gen_qr);
        (3, gen_q);
        (3, map (fun k -> Q.of_ints k 1009) (int_range (-3000) 3000));
        (2, edge);
        (1, bigint);
        (1, return Q.zero);
      ]
  in
  let weights d =
    frequency
      [
        (3, list_repeat d (map (fun k -> Q.of_ints k 1009) (int_range 1 1008)));
        (2, list_repeat d v);
      ]
  in
  (* a template, the attributes it reads, and whether it is affine *)
  let template =
    frequency
      [
        (1, return (Template.affine_1d, 2, true));
        (1, int_range 1 3 >|= fun d -> (Template.linear_weights ~dims:d, d, false));
      ]
  in
  (* [b] scores as [a] at [x] from other attributes where the template
     allows it *)
  let tie affine a x =
    let a = Array.of_list a and x = Array.of_list x in
    map
      (fun s ->
        let b = Array.copy a in
        if affine then begin
          b.(0) <- Q.add a.(0) s;
          b.(1) <- Q.sub a.(1) (Q.mul s x.(0))
        end
        else if Array.length x >= 2 then begin
          b.(0) <- Q.add a.(0) (Q.mul s x.(1));
          b.(1) <- Q.sub a.(1) (Q.mul s x.(0))
        end;
        Array.to_list b)
      v
  in
  let case =
    template >>= fun (t, need, affine) ->
    weights (Template.dim t) >>= fun x ->
    int_range (-1) 2 >>= fun extra ->
    list_repeat (need + max extra 0) v >>= fun a ->
    frequency [ (3, list_repeat (need + max extra 0) v); (2, tie affine a x); (1, return a) ]
    >>= fun b ->
    let short = if extra < 0 then List.tl else Fun.id in
    let ra = Record.make ~id:1 ~attrs:(Array.of_list (short a)) ()
    and rb = Record.make ~id:2 ~attrs:(Array.of_list b) () in
    let x = Array.of_list x in
    frequency
      [
        (3, v);
        ( 2,
          return
            (match Template.score t rb x with s -> s | exception Invalid_argument _ -> Q.zero) );
      ]
    >|= fun q -> (t, ra, rb, x, q)
  in
  QCheck.make
    ~print:(fun (t, a, b, x, q) ->
      Format.asprintf "%a on %a, %a at (%s) against %a" Template.pp t Record.pp a Record.pp b
        (String.concat ", " (Array.to_list (Array.map Q.to_string x)))
        Q.pp q)
    case

let score_compare_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~long_factor:20
       ~name:"compare_unreduced = reduced compare" arb_compare_case
       (fun (t, a, b, x, q) ->
         let module Template = Aqv_db.Template in
         let sgn c = Int.compare c 0 in
         let qu = Q.to_unreduced q in
         match Template.score t a x with
         | exception Invalid_argument _ -> (
           match Template.score_unreduced t a x with
           | exception Invalid_argument _ -> true
           | _ -> false)
         | sa ->
           let sb = Template.score t b x in
           let ua = Template.score_unreduced t a x and ub = Template.score_unreduced t b x in
           sgn (Q.compare_unreduced ua ub) = sgn (Q.compare sa sb)
           && sgn (Q.compare_unreduced ub ua) = sgn (Q.compare sb sa)
           && sgn (Q.compare_unreduced ua qu) = sgn (Q.compare sa q)
           && sgn (Q.compare_unreduced qu ub) = sgn (Q.compare q sb)
           && Q.equal (Q.of_unreduced ua) sa
           && Q.equal (Q.of_unreduced qu) q))

(* ----------------------------- simplex ------------------------------ *)

let q = Q.of_int

let test_simplex_basic_max () =
  (* max x + y st x <= 2, y <= 3, x + y <= 4 -> 4 at (1..2, ...) *)
  let r =
    Simplex.maximize
      ~obj:[| Q.one; Q.one |]
      ~rows:
        [
          ([| Q.one; Q.zero |], q 2);
          ([| Q.zero; Q.one |], q 3);
          ([| Q.one; Q.one |], q 4);
        ]
  in
  match r with
  | Simplex.Optimal (v, x) ->
    check qt "optimum" (q 4) v;
    check qt "constraint holds" (q 4) (Q.add x.(0) x.(1))
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* max x st x <= 1, x <= 1 (duplicate constraints) *)
  match
    Simplex.maximize ~obj:[| Q.one |] ~rows:[ ([| Q.one |], Q.one); ([| Q.one |], Q.one) ]
  with
  | Simplex.Optimal (v, _) -> check qt "optimum" Q.one v
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_unbounded () =
  match Simplex.maximize ~obj:[| Q.one |] ~rows:[ ([| Q.minus_one |], Q.one) ] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_infeasible () =
  (* x <= -1 with x >= 0 *)
  match Simplex.maximize ~obj:[| Q.one |] ~rows:[ ([| Q.one |], q (-1)) ] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_negative_rhs_feasible () =
  (* -x <= -2 (x >= 2), x <= 5; max x -> 5 *)
  match
    Simplex.maximize ~obj:[| Q.one |]
      ~rows:[ ([| Q.minus_one |], q (-2)); ([| Q.one |], q 5) ]
  with
  | Simplex.Optimal (v, x) ->
    check qt "optimum" (q 5) v;
    check qt "x" (q 5) x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_2d_phase1 () =
  (* x + y >= 2, x <= 3, y <= 3, max x + 2y -> (x=3 is not forced) opt: y=3, x=3 -> 9 *)
  match
    Simplex.maximize
      ~obj:[| Q.one; q 2 |]
      ~rows:
        [
          ([| Q.minus_one; Q.minus_one |], q (-2));
          ([| Q.one; Q.zero |], q 3);
          ([| Q.zero; Q.one |], q 3);
        ]
  with
  | Simplex.Optimal (v, _) -> check qt "optimum" (q 9) v
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_fractional () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: classic, opt 36 at (2,6) *)
  match
    Simplex.maximize
      ~obj:[| q 3; q 5 |]
      ~rows:
        [
          ([| Q.one; Q.zero |], q 4);
          ([| Q.zero; q 2 |], q 12);
          ([| q 3; q 2 |], q 18);
        ]
  with
  | Simplex.Optimal (v, x) ->
    check qt "optimum" (q 36) v;
    check qt "x" (q 2) x.(0);
    check qt "y" (q 6) x.(1)
  | _ -> Alcotest.fail "expected optimal"

(* Random LPs: verify the returned point is feasible and achieves the
   claimed objective; verify against brute-force over a grid that no
   sampled feasible point beats it. *)
let simplex_random_sound =
  qtest ~count:200 "random LP soundness"
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (pair (pair small_signed_int small_signed_int) small_signed_int)) (pair small_signed_int small_signed_int))
    (fun (raw_rows, (c1, c2)) ->
      let rows =
        List.map (fun ((a, b), r) -> ([| q a; q b |], q r)) raw_rows
        (* keep it bounded *)
        @ [ ([| Q.one; Q.zero |], q 10); ([| Q.zero; Q.one |], q 10) ]
      in
      let obj = [| q c1; q c2 |] in
      match Simplex.maximize ~obj ~rows with
      | Simplex.Unbounded -> false (* impossible: box-bounded *)
      | Simplex.Infeasible ->
        (* no grid point may be feasible *)
        let feasible_exists = ref false in
        for i = 0 to 20 do
          for j = 0 to 20 do
            let x = [| Q.of_ints i 2; Q.of_ints j 2 |] in
            if
              List.for_all
                (fun (a, b) ->
                  Q.compare (Q.add (Q.mul a.(0) x.(0)) (Q.mul a.(1) x.(1))) b <= 0)
                rows
            then feasible_exists := true
          done
        done;
        not !feasible_exists
      | Simplex.Optimal (v, x) ->
        (* feasible *)
        List.for_all
          (fun (a, b) -> Q.compare (Q.add (Q.mul a.(0) x.(0)) (Q.mul a.(1) x.(1))) b <= 0)
          rows
        && Q.sign x.(0) >= 0 && Q.sign x.(1) >= 0
        && Q.equal v (Q.add (Q.mul obj.(0) x.(0)) (Q.mul obj.(1) x.(1)))
        && begin
          (* no grid point beats it *)
          let beaten = ref false in
          for i = 0 to 20 do
            for j = 0 to 20 do
              let p = [| Q.of_ints i 2; Q.of_ints j 2 |] in
              let feas =
                List.for_all
                  (fun (a, b) ->
                    Q.compare (Q.add (Q.mul a.(0) p.(0)) (Q.mul a.(1) p.(1))) b <= 0)
                  rows
              in
              let value = Q.add (Q.mul obj.(0) p.(0)) (Q.mul obj.(1) p.(1)) in
              if feas && Q.compare value v > 0 then beaten := true
            done
          done;
          not !beaten
        end)

(* 3-variable random LPs: the solution must be feasible, achieve its
   claimed objective, and beat every vertex-ish grid sample *)
let simplex_random_3d =
  qtest ~count:100 "random LP soundness (3 vars)"
    QCheck.(pair
      (list_of_size Gen.(int_range 1 5) (pair (triple small_signed_int small_signed_int small_signed_int) small_signed_int))
      (triple small_signed_int small_signed_int small_signed_int))
    (fun (raw_rows, (c1, c2, c3)) ->
      let box v = ([| (if v = 0 then Q.one else Q.zero); (if v = 1 then Q.one else Q.zero); (if v = 2 then Q.one else Q.zero) |], q 6) in
      let rows =
        List.map (fun ((a, b, c), r) -> ([| q a; q b; q c |], q r)) raw_rows
        @ [ box 0; box 1; box 2 ]
      in
      let obj = [| q c1; q c2; q c3 |] in
      let value p = Q.add (Q.mul obj.(0) p.(0)) (Q.add (Q.mul obj.(1) p.(1)) (Q.mul obj.(2) p.(2))) in
      let feasible p =
        List.for_all
          (fun (a, b) ->
            Q.compare
              (Q.add (Q.mul a.(0) p.(0)) (Q.add (Q.mul a.(1) p.(1)) (Q.mul a.(2) p.(2))))
              b
            <= 0)
          rows
        && Array.for_all (fun v -> Q.sign v >= 0) p
      in
      match Simplex.maximize ~obj ~rows with
      | Simplex.Unbounded -> false (* box-bounded *)
      | Simplex.Infeasible ->
        (* the origin-corner grid must also be infeasible *)
        let any = ref false in
        for i = 0 to 6 do
          for j = 0 to 6 do
            for k = 0 to 6 do
              if feasible [| q i; q j; q k |] then any := true
            done
          done
        done;
        not !any
      | Simplex.Optimal (v, x) ->
        feasible x && Q.equal v (value x)
        && begin
          let beaten = ref false in
          for i = 0 to 6 do
            for j = 0 to 6 do
              for k = 0 to 6 do
                let p = [| q i; q j; q k |] in
                if feasible p && Q.compare (value p) v > 0 then beaten := true
              done
            done
          done;
          not !beaten
        end)

(* ------------------------------ region ------------------------------ *)

let test_region_1d_basic () =
  let dom = Domain.of_ints [ (0, 10) ] in
  let r = Region.of_domain dom in
  (* f = x - 4: splits (0,10) *)
  let f = Linfun.of_ints [| 1 |] (-4) in
  check Alcotest.bool "splits" true (Region.classify r f = Region.Split);
  (* take the above side: (4, 10) *)
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  check Alcotest.bool "no longer splits" true (Region.classify ra f = Region.Pos);
  (* g = x - 12: entirely negative on (4, 10) *)
  let g = Linfun.of_ints [| 1 |] (-12) in
  check Alcotest.bool "g neg" true (Region.classify ra g = Region.Neg);
  (* interior point is strictly inside *)
  let p = Region.interior_point ra in
  check Alcotest.bool "interior" true (Q.compare p.(0) (Q.of_int 4) > 0 && Q.compare p.(0) (Q.of_int 10) < 0)

let test_region_1d_empty () =
  let dom = Domain.of_ints [ (0, 10) ] in
  let r = Region.of_domain dom in
  let f = Linfun.of_ints [| 1 |] (-4) in
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  (* now require below f too: empty *)
  check Alcotest.bool "empty" true (Region.add ra (Halfspace.below f) = None)

let test_region_1d_contains_halfopen () =
  let dom = Domain.of_ints [ (0, 10) ] in
  let r = Region.of_domain dom in
  let f = Linfun.of_ints [| 1 |] (-4) in
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  let rb = Option.get (Region.add r (Halfspace.below f)) in
  let at4 = [| Q.of_int 4 |] in
  check Alcotest.bool "boundary goes above" true (Num_ref.region_contains ~domain:dom ra at4);
  check Alcotest.bool "boundary not below" false (Num_ref.region_contains ~domain:dom rb at4);
  check Alcotest.bool "outside domain" false (Num_ref.region_contains ~domain:dom ra [| Q.of_int 11 |])

let test_region_2d_classify () =
  let dom = Domain.of_ints [ (0, 1); (0, 1) ] in
  let r = Region.of_domain dom in
  (* x - y: splits the unit square *)
  let f = Linfun.of_ints [| 1; -1 |] 0 in
  check Alcotest.bool "splits" true (Region.classify r f = Region.Split);
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  check Alcotest.bool "pos after cut" true (Region.classify ra f = Region.Pos);
  (* x + y - 3: negative on the whole square *)
  let g = Linfun.of_ints [| 1; 1 |] (-3) in
  check Alcotest.bool "neg" true (Region.classify r g = Region.Neg);
  (* boundary-touching: x + y - 2 touches only the corner (1,1) *)
  let h = Linfun.of_ints [| 1; 1 |] (-2) in
  check Alcotest.bool "corner contact is not a split" true (Region.classify r h = Region.Neg)

let test_region_2d_interior () =
  let dom = Domain.of_ints [ (0, 1); (0, 1) ] in
  let r = Region.of_domain dom in
  let f = Linfun.of_ints [| 1; -1 |] 0 in
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  (* x > y and 2x < y is empty in the positive quadrant *)
  check Alcotest.bool "empty slice rejected" true
    (Region.add ra (Halfspace.above (Linfun.of_ints [| -2; 1 |] 0)) = None);
  (* region: x > y and x < 1/2 *)
  let rb = Option.get (Region.add ra (Halfspace.below (Linfun.of_ints [| 2; 0 |] (-1)))) in
  let p = Region.interior_point rb in
  check Alcotest.bool "strictly inside" true
    (Q.compare p.(0) p.(1) > 0 && Q.sign (Q.sub (Q.mul p.(0) (Q.of_int 2)) Q.one) < 0)

let test_region_2d_empty_intersection () =
  let dom = Domain.of_ints [ (0, 1); (0, 1) ] in
  let r = Region.of_domain dom in
  (* x > y and y > x: empty *)
  let f = Linfun.of_ints [| 1; -1 |] 0 in
  let ra = Option.get (Region.add r (Halfspace.above f)) in
  check Alcotest.bool "empty" true (Region.add ra (Halfspace.above (Num_ref.linfun_neg f)) = None)

(* Random cross-check in 2-D: classify vs dense sampling. If sampling
   finds points of both signs, classify must say Split; if classify says
   Pos (resp. Neg), sampling must never find a strictly negative
   (resp. positive) interior point. *)
let region_classify_vs_sampling =
  qtest ~count:150 "classify vs sampling (2d)"
    QCheck.(pair (list_of_size Gen.(int_range 0 3) (triple small_signed_int small_signed_int small_signed_int)) (triple small_signed_int small_signed_int small_signed_int))
    (fun (cuts, (a, b, c)) ->
      QCheck.assume (a <> 0 || b <> 0 || c <> 0);
      let dom = Domain.of_ints [ (0, 4); (0, 4) ] in
      let region =
        List.fold_left
          (fun acc (ca, cb, cc) ->
            match acc with
            | None -> None
            | Some r ->
              let f = Linfun.of_ints [| ca; cb |] cc in
              if Linfun.is_zero f then Some r
              else begin
                match Region.classify r f with
                | Region.Split ->
                  Region.add r (if (ca + cb + cc) mod 2 = 0 then Halfspace.above f else Halfspace.below f)
                | _ -> Some r
              end)
          (Some (Region.of_domain dom)) cuts
      in
      match region with
      | None -> QCheck.assume_fail ()
      | Some r ->
        let f = Linfun.of_ints [| a; b |] c in
        let verdict = Region.classify r f in
        let seen_pos = ref false and seen_neg = ref false in
        for i = 0 to 16 do
          for j = 0 to 16 do
            let p = [| Q.of_ints i 4; Q.of_ints j 4 |] in
            (* interior sampling only: strict w.r.t. constraints *)
            if
              Domain.contains dom p
              && List.for_all (fun h -> Num_ref.halfspace_contains_strictly h p) (Region.constraints r)
            then begin
              let s = Q.sign (Linfun.eval f p) in
              if s > 0 then seen_pos := true;
              if s < 0 then seen_neg := true
            end
          done
        done;
        (match verdict with
        | Region.Split -> true (* sampling may miss thin slivers; no contradiction possible *)
        | Region.Pos -> not !seen_neg
        | Region.Neg -> not !seen_pos))

let () =
  Alcotest.run "aqv_num"
    [
      ( "rational",
        [
          Alcotest.test_case "basics" `Quick test_q_basics;
          Alcotest.test_case "decimal parsing" `Quick test_q_decimal;
          Alcotest.test_case "division by zero" `Quick test_q_div_zero;
          Alcotest.test_case "decode zero denominator" `Quick test_q_decode_zero_den;
          q_field_axioms;
          q_compare_total;
          q_average_between;
          q_encode_roundtrip;
          q_oracle_binary;
          q_oracle_unary;
          q_oracle_decode;
          q_oracle_decode_garbage;
          Alcotest.test_case "zero denominator, both paths" `Quick test_q_zero_den_both_paths;
        ] );
      ( "linfun",
        [
          Alcotest.test_case "evaluation" `Quick test_linfun_eval;
          Alcotest.test_case "self difference" `Quick test_linfun_sub_zero;
          Alcotest.test_case "dimension mismatch" `Quick test_linfun_dim_mismatch;
          linfun_sub_eval;
          linfun_eval_fold;
          template_score_is_eval;
        ] );
      ("scores", [ score_compare_law ]);
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_simplex_basic_max;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs_feasible;
          Alcotest.test_case "phase-1 2d" `Quick test_simplex_2d_phase1;
          Alcotest.test_case "fractional optimum" `Quick test_simplex_fractional;
          simplex_random_sound;
          simplex_random_3d;
        ] );
      ( "region",
        [
          Alcotest.test_case "1d basics" `Quick test_region_1d_basic;
          Alcotest.test_case "1d empty" `Quick test_region_1d_empty;
          Alcotest.test_case "1d half-open contains" `Quick test_region_1d_contains_halfopen;
          Alcotest.test_case "2d classify" `Quick test_region_2d_classify;
          Alcotest.test_case "2d interior point" `Quick test_region_2d_interior;
          Alcotest.test_case "2d empty intersection" `Quick test_region_2d_empty_intersection;
          region_classify_vs_sampling;
        ] );
    ]
