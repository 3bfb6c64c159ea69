(* Tests for the aqv_util substrate: PRNG determinism and distribution
   sanity, hex round trips, wire-format round trips, metric counters. *)

open Aqv_util

module Util_ref = Aqv_ref.Util_ref

let check = Alcotest.check
(* [long_factor] multiplies [count] under QCHECK_LONG=1 (CI's oracle
   steps) *)
let qtest ?(count = 500) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

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

(* A sign byte then a [read_uint_be] field, in one call: the same value
   (negated after a sign byte of 1), failure and final position as the
   two reads, and [min_int] with the reader back at the sign byte where
   the field does not fit. *)
let wire_signed_uint_be =
  let gen =
    QCheck.Gen.(
      map3
        (fun sign len body -> String.make 1 (Char.chr sign) ^ String.make 1 (Char.chr len) ^ body)
        (oneofl [ 0; 1; 2; 255 ]) (int_bound 11) (string_size ~gen:(oneofl [ '\000'; '\001'; '\063'; '\064'; '\255' ]) (int_bound 11)))
  in
  let rec left r n = match Wire.read_u8 r with _ -> left r (n + 1) | exception Failure _ -> n in
  qtest "read_signed_uint_be = read_u8 then read_uint_be" (QCheck.make ~print:String.escaped gen)
    (fun s ->
      let two = Wire.reader s and one = Wire.reader s in
      let expected =
        match
          let negative = Wire.read_u8 two = 1 in
          (negative, Wire.read_uint_be two)
        with
        | _, -1 -> Ok min_int
        | negative, v -> Ok (if negative then -v else v)
        | exception Failure m -> Error m
      in
      let got = match Wire.read_signed_uint_be one with v -> Ok v | exception Failure m -> Error m in
      got = expected
      &&
      match got with
      | Ok v when v = min_int -> left one 0 = String.length s
      | Ok _ -> left one 0 = left two 0
      | Error _ -> true)

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

(* ----------------------- Wire against its oracle -------------------- *)

(* The codec is held to [Wire_ref], the plain [Buffer] writer and
   recursive reader it replaced: the same bytes from every sequence of
   writes, and from every input — valid, truncated, mutated or random —
   the same values, the same failures and the same final position. *)

module type CODEC = sig
  type writer

  val writer : unit -> writer
  val contents : writer -> string
  val u8 : writer -> int -> unit
  val varint : writer -> int -> unit
  val int : writer -> int -> unit
  val bytes : writer -> string -> unit
  val uint_be : writer -> int -> unit
  val list : writer -> ('a -> unit) -> 'a list -> unit

  type reader

  val reader : string -> reader
  val read_u8 : reader -> int
  val read_varint : reader -> int
  val read_int : reader -> int
  val read_bytes : reader -> string
  val read_uint_be : reader -> int
  val read_list : reader -> (reader -> 'a) -> 'a list
  val read_array : reader -> (reader -> 'a) -> 'a array
end

(* A field's shape, and a value of that shape. An array is written as a
   list (a count, then the elements) and read with [read_array]. *)
type shape = U8 | Varint | Int | Bytes | Uint_be | List of shape | Array of shape
type value = Num of int | Str of string | Seq of value list

module Run (C : CODEC) = struct
  let rec write w shape v =
    match (shape, v) with
    | U8, Num n -> C.u8 w n
    | Varint, Num n -> C.varint w n
    | Int, Num n -> C.int w n
    | Bytes, Str s -> C.bytes w s
    | Uint_be, Num n -> C.uint_be w n
    | (List s | Array s), Seq vs -> C.list w (write w s) vs
    | _ -> invalid_arg "shape/value mismatch"

  let rec read r = function
    | U8 -> Num (C.read_u8 r)
    | Varint -> Num (C.read_varint r)
    | Int -> Num (C.read_int r)
    | Bytes -> Str (C.read_bytes r)
    | Uint_be -> (
      (* a field too wide for an int is left in place; re-read it as
         bytes, as [Rational.decode] does, so every read moves on *)
      match C.read_uint_be r with -1 -> Str (C.read_bytes r) | v -> Num v)
    | List s -> Seq (C.read_list r (fun r -> read r s))
    | Array s -> Seq (Array.to_list (C.read_array r (fun r -> read r s)))

  let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

  let encode fields =
    outcome (fun () ->
        let w = C.writer () in
        List.iter (fun (s, v) -> write w s v) fields;
        C.contents w)

  (* The values read (or the failure), then the bytes left unread. *)
  let decode shapes input =
    let r = C.reader input in
    let got = outcome (fun () -> List.map (read r) shapes) in
    let rec left k = match C.read_u8 r with _ -> left (k + 1) | exception Failure _ -> k in
    (got, left 0)
end

module New = Run (Wire)
module Ref = Run (Aqv_ref.Wire_ref)

let gen_shape =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let leaf = oneofl [ U8; Varint; Int; Bytes; Uint_be ] in
        if depth = 0 then leaf
        else
          frequency
            [ (5, leaf); (1, map (fun s -> List s) (self (depth - 1)));
              (1, map (fun s -> Array s) (self (depth - 1))) ])
      2)

(* Mostly valid values, powers of two and their neighbours among them
   (where a varint or a big-endian field gains a byte), with now and
   then a negative count or width, which every writer must refuse the
   same way. *)
let rec gen_value shape =
  QCheck.Gen.(
    let edge = map2 (fun k d -> (1 lsl k) + d) (int_range 0 62) (int_range (-1) 1) in
    let nat =
      frequency [ (6, gen_nat); (3, map (fun v -> v land max_int) edge); (1, int_range min_int (-1)) ]
    in
    match shape with
    | U8 -> map (fun n -> Num n) (int_range (-300) 300)
    | Varint | Uint_be -> map (fun n -> Num n) nat
    | Int ->
      map (fun n -> Num n) (oneof [ map Int64.to_int int64; small_signed_int; edge; map Int.neg edge ])
    | Bytes -> map (fun s -> Str s) (string_size (int_bound 24))
    | List s | Array s -> map (fun vs -> Seq vs) (list_size (int_bound 5) (gen_value s)))

let gen_fields =
  QCheck.Gen.(
    list_size (int_range 1 6) (gen_shape >>= fun s -> map (fun v -> (s, v)) (gen_value s)))

(* The oracle's bytes for the fields (random bytes when it refuses
   them), then one of: as they are, cut short, bytes overwritten, an
   oversized length or a 9- or 10-byte varint spliced in, or random. *)
let gen_input fields =
  QCheck.Gen.(
    let bytes =
      match Ref.encode fields with Ok s -> return s | Error _ -> string_size (int_bound 40)
    in
    bytes >>= fun s ->
    let n = String.length s in
    let at = int_bound n in
    let splice piece = map (fun i -> String.sub s 0 i ^ piece ^ String.sub s i (n - i)) at in
    let long_varint k =
      map
        (fun tail -> String.make (k - 1) '\xff' ^ String.make 1 (Char.chr tail))
        (oneofl [ 0x00; 0x01; 0x3f; 0x40; 0x7f; 0x80; 0xff ])
    in
    frequency
      [
        (3, return s);
        (3, map (fun i -> String.sub s 0 i) at);
        ( 3,
          map2
            (fun i c ->
              if n = 0 then s
              else String.mapi (fun j x -> if j = i mod n then Char.chr c else x) s)
            (int_bound 1000) (int_bound 255) );
        (2, splice "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
        (2, splice "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
        (2, long_varint 9 >>= splice);
        (2, long_varint 10 >>= splice);
        (1, string_size (int_bound 40));
      ])

let print_fields fields =
  String.concat "; "
    (List.map
       (fun (_, v) ->
         let rec pv = function
           | Num n -> string_of_int n
           | Str s -> Printf.sprintf "%S" s
           | Seq vs -> "[" ^ String.concat "," (List.map pv vs) ^ "]"
         in
         pv v)
       fields)

let wire_writer_is_oracle =
  qtest ~long_factor:20 "writer writes the oracle's bytes"
    (QCheck.make ~print:print_fields gen_fields)
    (fun fields ->
      let got = New.encode fields in
      (* the same bytes behind a held-back header, which fills in place *)
      let framed =
        match
          let w = Wire.writer_after 4 in
          List.iter (fun (s, v) -> New.write w s v) fields;
          (Wire.contents w, Wire.size w, Wire.contents_with_header w "HDR!")
        with
        | c, size, whole -> Ok (c, size, whole)
        | exception e -> Error (Printexc.to_string e)
      in
      got = Ref.encode fields
      &&
      match (got, framed) with
      | Ok s, Ok (c, size, whole) -> c = s && size = String.length s && whole = "HDR!" ^ s
      | Error e, Error e' -> e = e'
      | _ -> false)

(* [raw] appends a string's bytes as they are, after the oracle's
   fields and across the writer's growth *)
let wire_raw_appends =
  qtest ~long_factor:20 "raw appends its bytes unprefixed"
    (QCheck.make
       ~print:(fun (f, s) -> print_fields f ^ " ++ " ^ Hex.encode s)
       QCheck.Gen.(pair gen_fields (string_size (int_bound 2000))))
    (fun (fields, s) ->
      match Ref.encode fields with
      | Error _ -> QCheck.assume_fail ()
      | Ok prefix ->
        let w = Wire.writer_after 3 in
        List.iter (fun (shape, v) -> New.write w shape v) fields;
        Wire.raw w s;
        Wire.raw w "";
        Wire.contents w = prefix ^ s && Wire.size w = String.length prefix + String.length s)

let wire_reader_is_oracle =
  let gen =
    QCheck.Gen.(gen_fields >>= fun fields -> map (fun s -> (fields, s)) (gen_input fields))
  in
  qtest ~long_factor:20
    "reader reads what the oracle reads, fails where it fails, stops where it stops"
    (QCheck.make ~print:(fun (f, s) -> print_fields f ^ " <- " ^ Hex.encode s) gen)
    (fun (fields, input) ->
      let shapes = List.map fst fields in
      New.decode shapes input = Ref.decode shapes input)

(* Every value where a field gains a byte, written both ways *)
let test_wire_edges_are_oracle () =
  for k = 0 to 62 do
    for d = -1 to 1 do
      let v = (1 lsl k) + d in
      let fields =
        [
          (Int, Num v);
          (Int, Num (-v));
          (Varint, Num (v land max_int));
          (Uint_be, Num (v land max_int));
        ]
      in
      check
        Alcotest.(result string string)
        (Printf.sprintf "2^%d%+d" k d) (Ref.encode fields) (New.encode fields)
    done
  done

let test_wire_header_length () =
  Alcotest.check_raises "header must fill the held-back bytes"
    (Invalid_argument "Wire.contents_with_header") (fun () ->
      ignore (Wire.contents_with_header (Wire.writer_after 4) "abc"))

(* ------------------------------ Pvec -------------------------------- *)

let test_pvec_basics () =
  let v = Pvec.of_array [| 10; 20; 30; 40; 50 |] in
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
          wire_signed_uint_be;
          Alcotest.test_case "uint_be too wide" `Quick test_wire_uint_be_too_wide;
          wire_writer_is_oracle;
          Alcotest.test_case "byte-count edges = oracle" `Quick test_wire_edges_are_oracle;
          wire_reader_is_oracle;
          wire_raw_appends;
          Alcotest.test_case "header length checked" `Quick test_wire_header_length;
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
