(* Tests for the aqv_util substrate: PRNG determinism and distribution
   sanity, hex round trips, wire-format round trips, metric counters. *)

open Aqv_util

module Util_ref = Aqv_ref.Util_ref

let check = Alcotest.check
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------- Prng ------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.bits a 62) (Prng.bits b 62)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let xa = List.init 8 (fun _ -> Prng.bits a 62) in
  let xb = List.init 8 (fun _ -> Prng.bits b 62) in
  check Alcotest.bool "different streams" true (xa <> xb)

let test_prng_int_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_in_bounds () =
  let r = Prng.create 7L in
  for _ = 1 to 10_000 do
    let v = Prng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_covers () =
  let r = Prng.create 3L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Prng.int r 10) <- true
  done;
  Array.iteri (fun i b -> if not b then Alcotest.failf "value %d never drawn" i) seen

let test_prng_float_bounds () =
  let r = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_prng_bytes_len () =
  let r = Prng.create 1L in
  check Alcotest.int "length" 33 (String.length (Util_ref.prng_bytes r 33))

let test_prng_shuffle_permutes () =
  let r = Prng.create 123L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted;
  check Alcotest.bool "actually permuted" true (a <> Array.init 50 Fun.id)

let test_prng_invalid () =
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int") (fun () ->
      ignore (Prng.int (Prng.create 1L) 0));
  Alcotest.check_raises "int_in empty" (Invalid_argument "Prng.int_in") (fun () ->
      ignore (Prng.int_in (Prng.create 1L) 3 2))

(* ------------------------------- Hex ------------------------------- *)

let test_hex_known () =
  check Alcotest.string "abc" "616263" (Hex.encode "abc");
  check Alcotest.string "empty" "" (Hex.encode "");
  check Alcotest.string "zero byte" "00" (Hex.encode "\x00");
  check Alcotest.string "decode" "abc" (Util_ref.hex_decode "616263");
  check Alcotest.string "decode uppercase" "\xde\xad\xbe\xef" (Util_ref.hex_decode "DEADBEEF")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode") (fun () ->
      ignore (Util_ref.hex_decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode") (fun () ->
      ignore (Util_ref.hex_decode "zz"))

let hex_roundtrip =
  qtest "hex roundtrip" QCheck.string (fun s -> Util_ref.hex_decode (Hex.encode s) = s)

(* ------------------------------- Wire ------------------------------ *)

let test_wire_varint_roundtrip () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.varint w v;
      let r = Wire.reader (Wire.contents w) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Wire.read_varint r);
      check Alcotest.bool "consumed" true (Util_ref.wire_at_end r))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 40; max_int / 2 ]

let test_wire_int_roundtrip () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.int w v;
      let r = Wire.reader (Wire.contents w) in
      check Alcotest.int (Printf.sprintf "int %d" v) v (Wire.read_int r))
    [ 0; 1; -1; 63; -64; 1000; -1000; max_int / 4; -(max_int / 4) ]

let test_wire_bytes_roundtrip () =
  let w = Wire.writer () in
  Wire.bytes w "hello";
  Wire.bytes w "";
  Wire.bytes w "\x00\xff";
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.string "s1" "hello" (Wire.read_bytes r);
  check Alcotest.string "s2" "" (Wire.read_bytes r);
  check Alcotest.string "s3" "\x00\xff" (Wire.read_bytes r);
  check Alcotest.bool "consumed" true (Util_ref.wire_at_end r)

let test_wire_list_roundtrip () =
  let w = Wire.writer () in
  Wire.list w (Wire.int w) [ 3; -7; 0; 42 ];
  let r = Wire.reader (Wire.contents w) in
  check Alcotest.(list int) "list" [ 3; -7; 0; 42 ] (Wire.read_list r Wire.read_int)

let test_wire_truncated () =
  let w = Wire.writer () in
  Wire.bytes w "hello";
  let s = Wire.contents w in
  let r = Wire.reader (String.sub s 0 (String.length s - 1)) in
  Alcotest.check_raises "truncated" (Failure "Wire: truncated") (fun () ->
      ignore (Wire.read_bytes r))

let wire_mixed_roundtrip =
  qtest "wire mixed roundtrip"
    QCheck.(pair (small_list int) string)
    (fun (xs, s) ->
      let w = Wire.writer () in
      Wire.list w (Wire.int w) xs;
      Wire.bytes w s;
      let r = Wire.reader (Wire.contents w) in
      let xs' = Wire.read_list r Wire.read_int in
      let s' = Wire.read_bytes r in
      xs' = xs && s' = s && Util_ref.wire_at_end r)

(* Ints across the whole non-negative range: a random bit pattern cut
   to a random width, so every varint length from 1 to 9 bytes shows. *)
let gen_nat =
  QCheck.Gen.(
    map2 (fun bits width -> if width >= 62 then bits land max_int else bits land ((1 lsl width) - 1))
      (map Int64.to_int int64) (int_range 0 62))

let arb_nat = QCheck.make ~print:string_of_int gen_nat

let wire_varint_all_nats =
  qtest "read_varint . varint = id on [0, max_int]" arb_nat (fun v ->
      let w = Wire.writer () in
      Wire.varint w v;
      let r = Wire.reader (Wire.contents w) in
      Wire.read_varint r = v && Util_ref.wire_at_end r)

(* Mostly 9- and 10-byte strings with continuation bits set: the
   lengths at which a varint reaches bit 62. *)
let wire_varint_never_negative =
  let gen =
    QCheck.Gen.(
      int_range 1 11 >>= fun n ->
      map
        (fun bytes ->
          String.init n (fun i ->
              Char.chr (if i < n - 1 then 0x80 lor (bytes.(i) land 0x7f) else bytes.(i))))
        (array_repeat n (int_bound 255)))
  in
  qtest ~count:2000 "no byte string decodes to a negative varint"
    (QCheck.make ~print:Hex.encode gen)
    (fun s ->
      match Wire.read_varint (Wire.reader s) with
      | v -> v >= 0
      | exception Failure _ -> true)

let test_wire_varint_bit62 () =
  let forged = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  Alcotest.check_raises "bit 62 refused" (Failure "Wire: varint overflow") (fun () ->
      ignore (Wire.read_varint (Wire.reader forged)));
  let w = Wire.writer () in
  Wire.varint w max_int;
  check Alcotest.int "max_int still reads" max_int (Wire.read_varint (Wire.reader (Wire.contents w)))

(* A length near [max_int] must fail as truncated, not overflow the
   bounds check and escape from [String.sub]. *)
let test_wire_huge_length () =
  let w = Wire.writer () in
  Wire.u8 w 7;
  Wire.varint w (max_int - 3);
  Wire.bytes w "xyz";
  let r = Wire.reader (Wire.contents w) in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "read_bytes" (Failure "Wire: truncated") (fun () -> ignore (Wire.read_bytes r));
  let r = Wire.reader (Wire.contents w) in
  ignore (Wire.read_u8 r);
  Alcotest.check_raises "read_uint_be" (Failure "Wire: truncated") (fun () ->
      ignore (Wire.read_uint_be r))

(* [uint_be] writes what [bytes] writes for the minimal big-endian
   bytes of the value; [read_uint_be] reads it, and padded forms, back. *)
let be_bytes v =
  let rec go v acc = if v = 0 then acc else go (v lsr 8) (String.make 1 (Char.chr (v land 0xff)) ^ acc) in
  if v = 0 then "\x00" else go v ""

let wire_uint_be_roundtrip =
  qtest "uint_be = bytes of minimal big-endian; read_uint_be reads it and padded forms"
    QCheck.(pair arb_nat (int_bound 10))
    (fun (v, pad) ->
      let w = Wire.writer () in
      Wire.uint_be w v;
      let expect = Wire.writer () in
      Wire.bytes expect (be_bytes v);
      let padded = Wire.writer () in
      Wire.bytes padded (String.make pad '\x00' ^ be_bytes v);
      let r = Wire.reader (Wire.contents padded) in
      Wire.contents w = Wire.contents expect
      && Wire.read_uint_be (Wire.reader (Wire.contents w)) = v
      && Wire.read_uint_be r = v && Util_ref.wire_at_end r)

let test_wire_uint_be_too_wide () =
  (* 2^62 and a 9-byte value do not fit: -1, and the field is left to
     re-read as bytes *)
  List.iter
    (fun field ->
      let w = Wire.writer () in
      Wire.bytes w field;
      let r = Wire.reader (Wire.contents w) in
      check Alcotest.int "does not fit" (-1) (Wire.read_uint_be r);
      check Alcotest.string "reader unmoved" field (Wire.read_bytes r))
    [ "\x40\x00\x00\x00\x00\x00\x00\x00"; "\x01\x00\x00\x00\x00\x00\x00\x00\x00" ];
  let w = Wire.writer () in
  Wire.bytes w "\x00\x00\x3f\xff\xff\xff\xff\xff\xff\xff";
  check Alcotest.int "padded max_int fits" max_int (Wire.read_uint_be (Wire.reader (Wire.contents w)));
  Alcotest.check_raises "negative" (Invalid_argument "Wire.uint_be") (fun () ->
      Wire.uint_be (Wire.writer ()) (-1))

(* ------------------------------ Pvec -------------------------------- *)

let test_pvec_basics () =
  let v = Pvec.of_array [| 10; 20; 30; 40; 50 |] in
  check Alcotest.int "length" 5 (Pvec.length v);
  check Alcotest.int "get" 30 (Pvec.get v 2);
  check Alcotest.(list int) "to_list" [ 10; 20; 30; 40; 50 ] (Util_ref.pvec_to_list v);
  check Alcotest.(array int) "to_array" [| 10; 20; 30; 40; 50 |] (Pvec.to_array v)

let test_pvec_set_persistent () =
  let v = Pvec.of_array [| 1; 2; 3 |] in
  let v' = Pvec.set v 1 99 in
  check Alcotest.int "old unchanged" 2 (Pvec.get v 1);
  check Alcotest.int "new changed" 99 (Pvec.get v' 1);
  check Alcotest.int "other slots shared" 3 (Pvec.get v' 2)

let test_pvec_bounds () =
  let v = Pvec.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Pvec.get: out of bounds") (fun () ->
      ignore (Pvec.get v 1));
  Alcotest.check_raises "empty" (Invalid_argument "Pvec.of_array: empty") (fun () ->
      ignore (Pvec.of_array [||]))

let pvec_model =
  qtest ~count:300 "pvec behaves like an array"
    QCheck.(pair (array_of_size Gen.(int_range 1 40) small_nat) (small_list (pair small_nat small_nat)))
    (fun (a, updates) ->
      let n = Array.length a in
      let model = Array.copy a in
      let v = ref (Pvec.of_array a) in
      List.iter
        (fun (i, x) ->
          let i = i mod n in
          model.(i) <- x;
          v := Pvec.set !v i x)
        updates;
      Pvec.to_array !v = model)

(* ----------------------------- Histogram ---------------------------- *)

let hist_of_list xs =
  let t = Histogram.create () in
  List.iter (Histogram.observe t) xs;
  t

(* the full observable state: bucket contents plus every scalar gauge —
   "equal" below means indistinguishable through the public API *)
let hobs t =
  (Histogram.buckets t, Histogram.count t, Histogram.sum t, Histogram.max_value t)

let hist_gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 2_000_000))

let hist_merge_commutative =
  qtest ~count:300 "merge commutative" QCheck.(pair hist_gen hist_gen)
    (fun (a, b) ->
      hobs (Histogram.merge (hist_of_list a) (hist_of_list b))
      = hobs (Histogram.merge (hist_of_list b) (hist_of_list a)))

let hist_merge_associative =
  qtest ~count:300 "merge associative" QCheck.(triple hist_gen hist_gen hist_gen)
    (fun (a, b, c) ->
      let ha = hist_of_list a and hb = hist_of_list b and hc = hist_of_list c in
      hobs (Histogram.merge (Histogram.merge ha hb) hc)
      = hobs (Histogram.merge ha (Histogram.merge hb hc)))

let hist_merge_identity =
  qtest ~count:300 "merge with empty is identity" hist_gen (fun xs ->
      let h = hist_of_list xs in
      hobs (Histogram.merge h (Histogram.create ())) = hobs h
      && hobs (Histogram.merge (Histogram.create ()) h) = hobs h)

let hist_merge_count =
  qtest ~count:300 "merge preserves count and sum" QCheck.(pair hist_gen hist_gen)
    (fun (a, b) ->
      let m = Histogram.merge (hist_of_list a) (hist_of_list b) in
      Histogram.count m = List.length a + List.length b
      && Histogram.sum m = List.fold_left ( + ) 0 a + List.fold_left ( + ) 0 b)

let hist_percentile_monotone =
  qtest ~count:300 "percentile monotone in p"
    QCheck.(triple hist_gen (int_range 0 1000) (int_range 0 1000))
    (fun (xs, p, q) ->
      let h = hist_of_list xs in
      let p, q = (min p q, max p q) in
      Histogram.percentile_permille h p <= Histogram.percentile_permille h q)

let hist_percentile_bounded =
  qtest ~count:300 "percentile within [min obs, max obs] bucket bounds"
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_range 0 2_000_000)) (int_range 0 1000))
    (fun (xs, p) ->
      let h = hist_of_list xs in
      let v = Histogram.percentile_permille h p in
      (* a bucket upper bound is never below the smallest observation,
         and the last occupied bucket reports the exact max *)
      v >= List.fold_left min max_int xs && v <= Histogram.max_value h)

let test_hist_permille_exact () =
  let t = Histogram.create () in
  for _ = 1 to 999 do
    Histogram.observe t 1
  done;
  Histogram.observe t 1_000_000;
  (* rank ceil(999 * 1000 / 1000) = 999 lands on the 999 ones; only
     p = 1000 reaches the outlier *)
  check Alcotest.int "p50" 1 (Histogram.percentile_permille t 500);
  check Alcotest.int "p999" 1 (Histogram.percentile_permille t 999);
  check Alcotest.int "p1000 = exact max" 1_000_000 (Histogram.percentile_permille t 1000);
  check Alcotest.int "percent delegates" (Histogram.percentile_permille t 990)
    (Histogram.percentile t 99);
  check Alcotest.int "empty" 0 (Histogram.percentile_permille (Histogram.create ()) 999);
  Alcotest.check_raises "p > 1000" (Invalid_argument "Histogram.percentile_permille")
    (fun () -> ignore (Histogram.percentile_permille t 1001))

(* ----------------------------- Metrics ----------------------------- *)

let test_metrics_counts () =
  Metrics.reset ();
  Metrics.add_hash ~bytes_len:10;
  Metrics.add_hash ~bytes_len:20;
  Metrics.add_sign ();
  Metrics.add_verify ();
  Metrics.add_itree_nodes 3;
  Metrics.add_fmh_nodes 4;
  Metrics.add_mesh_cells 5;
  Metrics.add_bytes_out 100;
  let s = Metrics.snapshot () in
  check Alcotest.int "hash_ops" 2 s.hash_ops;
  check Alcotest.int "hash_bytes" 30 s.hash_bytes;
  check Alcotest.int "sign_ops" 1 s.sign_ops;
  check Alcotest.int "verify_ops" 1 s.verify_ops;
  check Alcotest.int "node visits" 12 (Metrics.total_node_visits s);
  check Alcotest.int "bytes_out" 100 s.bytes_out;
  Metrics.reset ();
  let z = Metrics.snapshot () in
  check Alcotest.int "reset" 0 (Metrics.total_node_visits z + z.hash_ops + z.bytes_out)

let test_metrics_diff () =
  Metrics.reset ();
  Metrics.add_hash ~bytes_len:5;
  let before = Metrics.snapshot () in
  Metrics.add_hash ~bytes_len:7;
  Metrics.add_sign ();
  let after = Metrics.snapshot () in
  let d = Metrics.diff after before in
  check Alcotest.int "hash_ops diff" 1 d.hash_ops;
  check Alcotest.int "hash_bytes diff" 7 d.hash_bytes;
  check Alcotest.int "sign diff" 1 d.sign_ops

let () =
  Alcotest.run "aqv_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid;
        ] );
      ( "hex",
        [
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
          hex_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_wire_varint_roundtrip;
          Alcotest.test_case "int roundtrip" `Quick test_wire_int_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_wire_bytes_roundtrip;
          Alcotest.test_case "list roundtrip" `Quick test_wire_list_roundtrip;
          Alcotest.test_case "truncated input" `Quick test_wire_truncated;
          wire_mixed_roundtrip;
          wire_varint_all_nats;
          wire_varint_never_negative;
          Alcotest.test_case "varint bit 62 refused" `Quick test_wire_varint_bit62;
          Alcotest.test_case "huge length is truncated" `Quick test_wire_huge_length;
          wire_uint_be_roundtrip;
          Alcotest.test_case "uint_be too wide" `Quick test_wire_uint_be_too_wide;
        ] );
      ( "pvec",
        [
          Alcotest.test_case "basics" `Quick test_pvec_basics;
          Alcotest.test_case "set persistent" `Quick test_pvec_set_persistent;
          Alcotest.test_case "bounds" `Quick test_pvec_bounds;
          pvec_model;
        ] );
      ( "histogram",
        [
          hist_merge_commutative;
          hist_merge_associative;
          hist_merge_identity;
          hist_merge_count;
          hist_percentile_monotone;
          hist_percentile_bounded;
          Alcotest.test_case "permille exact ranks" `Quick test_hist_permille_exact;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counts;
          Alcotest.test_case "diff" `Quick test_metrics_diff;
        ] );
    ]
