(* Tests for the database substrate: record commitments, template
   interpretation (record -> function), table validation, and workload
   generator guarantees. *)

module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Prng = Aqv_util.Prng
open Aqv_db

let check = Alcotest.check
let qt = Alcotest.testable Q.pp Q.equal

let mk_record id attrs = Record.make ~id ~attrs:(Array.map Q.of_int (Array.of_list attrs)) ()

(* ------------------------------ record ------------------------------ *)

let test_record_roundtrip () =
  let r = Record.make ~id:7 ~attrs:[| Q.of_ints 1 3; Q.of_int (-2) |] ~payload:"alice" () in
  let w = Aqv_util.Wire.writer () in
  Record.encode w r;
  let r' = Record.decode (Aqv_util.Wire.reader (Aqv_util.Wire.contents w)) in
  check Alcotest.bool "equal" true (Record.equal r r');
  check Alcotest.int "id" 7 (Record.id r');
  check Alcotest.string "payload" "alice" (Record.payload r')

let test_record_digest_sensitivity () =
  let base = mk_record 1 [ 1; 2 ] in
  let others =
    [
      mk_record 2 [ 1; 2 ];
      mk_record 1 [ 1; 3 ];
      mk_record 1 [ 1; 2; 0 ];
      Record.make ~id:1 ~attrs:[| Q.of_int 1; Q.of_int 2 |] ~payload:"x" ();
    ]
  in
  List.iter
    (fun o ->
      if String.equal (Record.digest base) (Record.digest o) then
        Alcotest.fail "digest collision between distinct records")
    others;
  check Alcotest.string "deterministic" (Record.digest base) (Record.digest base)

let test_sentinel_digests_distinct () =
  check Alcotest.bool "min <> max" true
    (not (String.equal Record.min_sentinel_digest Record.max_sentinel_digest));
  let r = mk_record 0 [ 0 ] in
  check Alcotest.bool "record <> sentinels" true
    (not (String.equal (Record.digest r) Record.min_sentinel_digest)
    && not (String.equal (Record.digest r) Record.max_sentinel_digest))

(* --------------------------- record bytes --------------------------- *)

(* A record keeps its canonical encoding once the first [encode] or
   [digest] has made it. Whatever state that cache is in, [encode] must
   write the bytes the field-by-field oracle writes and [digest] must
   hash them, and a decoded record must re-encode from its fields, not
   from the bytes it came in. *)

module W = Aqv_util.Wire
module Z = Aqv_bigint.Bigint
module Record_ref = Aqv_ref.Record_ref

(* [long_factor] multiplies [count] under QCHECK_LONG=1 (CI's oracle
   steps) *)
let qtest ?(count = 500) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

(* a non-zero integer of up to 51 decimal digits, either sign *)
let gen_z =
  QCheck.Gen.(
    map3
      (fun lead rest neg ->
        let z = Z.of_string (string_of_int lead ^ rest) in
        if neg then Z.neg z else z)
      (int_range 1 9)
      (string_size ~gen:numeral (int_bound 50))
      bool)

(* Attributes of every encoded shape: small fractions, values at the
   native bounds, and numerators or denominators past a machine word *)
let gen_attr =
  QCheck.Gen.(
    frequency
      [
        (2, map2 Q.of_ints (int_range (-1000) 1000) (int_range 1 1009));
        (1, map Q.of_int (map Int64.to_int int64));
        (1, oneofl [ Q.of_int max_int; Q.of_int min_int; Q.of_ints max_int (max_int - 1) ]);
        (3, map2 Aqv_ref.Num_ref.q_of_bigints gen_z gen_z);
      ])

let gen_fields =
  QCheck.Gen.(
    triple
      (oneof [ small_nat; map (fun v -> v land max_int) (map Int64.to_int int64) ])
      (array_size (int_bound 6) gen_attr)
      (string_size (int_bound 40)))

let print_fields (id, attrs, payload) =
  Printf.sprintf "#%d(%s) %S" id
    (String.concat ", " (Array.to_list (Array.map Q.to_string attrs)))
    payload

let encoded r =
  let w = W.writer () in
  Record.encode w r;
  W.contents w

let record_bytes_are_oracle =
  qtest ~long_factor:20 "encode writes the oracle's bytes, digest hashes them, in every cache state"
    (QCheck.make ~print:print_fields gen_fields)
    (fun (id, attrs, payload) ->
      let fresh () = Record.make ~id ~attrs ~payload () in
      let want = Record_ref.bytes (fresh ()) in
      let digest = Aqv_crypto.Sha256.digest ("\x00" ^ want) in
      (* empty, then filled by the encode before it *)
      let r = fresh () in
      let empty_then_filled = encoded r = want && encoded r = want && Record.digest r = digest in
      (* filled by [digest] *)
      let r = fresh () in
      let after_digest = Record.digest r = digest && encoded r = want && Record.digest r = digest in
      (* behind other bytes, a held-back header among them *)
      let r = fresh () in
      let appended =
        let w = W.writer_after 2 in
        W.varint w 300;
        Record.encode w r;
        Record.encode w r;
        W.contents w = "\xac\x02" ^ want ^ want
      in
      (* decoded from the oracle's bytes: fresh, then filled *)
      let r = Record.decode (W.reader want) in
      let decoded = Record.digest r = digest && encoded r = want in
      empty_then_filled && after_digest && appended && decoded)

(* 1/2 as the wire may carry it: canonical, padded with a leading zero
   byte, unreduced, and under a sign byte other than 0 or 1. A record
   decoded from any of them encodes (and hashes) its fields' canonical
   bytes, never the bytes it was decoded from. *)
let half_forms =
  [
    ("\x00", "\x01", "\x02");
    ("\x00", "\x00\x01", "\x02");
    ("\x00", "\x02", "\x04");
    ("\x07", "\x01", "\x02");
  ]

let test_record_bytes_not_received () =
  let canonical = Record_ref.bytes (Record.make ~id:5 ~attrs:[| Q.of_ints 1 2 |] ~payload:"p" ()) in
  List.iteri
    (fun i (sign, num, den) ->
      let received =
        let w = W.writer () in
        W.varint w 5;
        W.varint w 1;
        W.raw w sign;
        W.bytes w num;
        W.bytes w den;
        W.bytes w "p";
        W.contents w
      in
      let r = Record.decode (W.reader received) in
      check Alcotest.string (Printf.sprintf "form %d encodes canonically" i) canonical (encoded r);
      check Alcotest.string (Printf.sprintf "form %d hashes canonically" i)
        (Aqv_crypto.Sha256.digest ("\x00" ^ canonical))
        (Record.digest r);
      if i > 0 then
        check Alcotest.bool (Printf.sprintf "form %d is not canonical" i) false
          (String.equal received canonical))
    half_forms

(* Two domains encode the same fresh records at once, each filling
   caches the other may be filling: both write the oracle's bytes. *)
let test_record_bytes_domains () =
  let rng = Random.State.make [| 0x5eed |] in
  let fields = QCheck.Gen.generate ~rand:rng ~n:2000 gen_fields in
  let records =
    Array.of_list (List.map (fun (id, attrs, payload) -> Record.make ~id ~attrs ~payload ()) fields)
  in
  let want = Array.map Record_ref.bytes records in
  let encoder () = Array.map (fun r -> (encoded r, Record.digest r)) records in
  let a = Domain.spawn encoder and b = Domain.spawn encoder in
  let a = Domain.join a and b = Domain.join b in
  Array.iteri
    (fun i want ->
      let (ga, da), (gb, db) = (a.(i), b.(i)) in
      check Alcotest.string (Printf.sprintf "record %d, domain a" i) want ga;
      check Alcotest.string (Printf.sprintf "record %d, domain b" i) want gb;
      check Alcotest.string (Printf.sprintf "record %d, digests" i) da db)
    want

(* [equal] reads the fields alone: a record with its bytes cached equals
   one without, both ways, and a cache does not make unequal records
   equal. *)
let record_equal_ignores_cache =
  qtest "equal does not depend on the cached bytes"
    (QCheck.make ~print:(fun (a, b) -> print_fields a ^ " / " ^ print_fields b)
       (QCheck.Gen.pair gen_fields gen_fields))
    (fun ((id, attrs, payload), other) ->
      let fresh (id, attrs, payload) = Record.make ~id ~attrs ~payload () in
      let a = fresh (id, attrs, payload) and a' = fresh (id, attrs, payload) in
      let b = fresh other in
      let same = Record.equal a b in
      ignore (Record.digest a);
      ignore (encoded b);
      Record.equal a a' && Record.equal a' a
      && Record.equal a b = same
      && Record.equal b a = same
      && same = String.equal (Record_ref.bytes a) (Record_ref.bytes b))

(* --------------------------- decode -------------------------------- *)

(* [Record.decode] returns the record it kept for a span of bytes when
   the input starts with that span. Held to the field-by-field
   reference decoder of test/ref, with the table warm: the same record,
   the same bytes consumed, the same failure, on each record of an
   input read to its end or its first failure. *)

(* a decoded record and where the reader stopped, or the failure and
   where it stopped *)
type outcome = Got of Record.t * int | Raised of string * int

let outcomes decode input =
  let r = W.reader input in
  let rec go acc =
    if W.position r >= String.length input then List.rev acc
    else
      match decode r with
      | record -> go (Got (record, W.position r) :: acc)
      | exception e -> List.rev (Raised (Printexc.to_string e, W.position r) :: acc)
  in
  go []

let same_outcome a b =
  match (a, b) with
  | Got (r, p), Got (r', p') -> p = p' && Record.equal r r'
  | Raised (e, p), Raised (e', p') -> p = p' && String.equal e e'
  | _ -> false

let decodes_as_reference input =
  List.equal same_outcome (outcomes Record.decode input) (outcomes Record_ref.decode input)

let encode_fields (id, attrs, payload) = Record_ref.bytes (Record.make ~id ~attrs ~payload ())

(* 1/2 under [form] of [half_forms], with this id and payload *)
let half_bytes form id payload =
  let sign, num, den = List.nth half_forms form in
  let w = W.writer () in
  W.varint w id;
  W.varint w 1;
  W.raw w sign;
  W.bytes w num;
  W.bytes w den;
  W.bytes w payload;
  W.contents w

(* Ids share slots: a few small ones, and the same few 2^14 apart (a
   slot is [id land (2^14 - 1)]). Zero to three attributes; the payload
   is often empty, so a span often ends in a zero byte. *)
let gen_decode_fields =
  QCheck.Gen.(
    triple
      (map2
         (fun k far -> if far then k + (1 lsl 14) else k)
         (int_bound 5)
         (frequency [ (3, return false); (1, return true) ]))
      (array_size (int_bound 3) gen_attr)
      (frequency [ (1, return ""); (1, string_size (int_bound 6)) ]))

(* what follows an honest stream: the i-th record's span then garbage,
   cut one byte short at the end of the input, a record with its id and
   other contents, or 1/2 in a form of [half_forms] under its id *)
type probe = Garbage of int * string | Cut of int | Twin of int | Half of int * int

let gen_probe =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i g -> Garbage (i, g)) nat (string_size (int_range 1 8));
        map (fun i -> Cut i) nat;
        map (fun i -> Twin i) nat;
        map2 (fun i f -> Half (i, f)) nat (int_bound 3);
      ])

let print_probe = function
  | Garbage (i, g) -> Printf.sprintf "Garbage (%d, %S)" i g
  | Cut i -> Printf.sprintf "Cut %d" i
  | Twin i -> Printf.sprintf "Twin %d" i
  | Half (i, f) -> Printf.sprintf "Half (%d, %d)" i f

let gen_decode_case =
  QCheck.Gen.(pair (list_size (int_range 1 8) gen_decode_fields) (list_size (int_bound 8) gen_probe))

(* the inputs of one case, in the order they are decoded: the honest
   stream, each probe, the honest stream again *)
let decode_inputs (records, probes) =
  let spans = Array.of_list (List.map encode_fields records) in
  let fields = Array.of_list records in
  let nth i = i mod Array.length spans in
  let probe = function
    | Garbage (i, g) -> spans.(nth i) ^ g
    | Cut i -> String.sub spans.(nth i) 0 (String.length spans.(nth i) - 1)
    | Twin i ->
      let id, attrs, payload = fields.(nth i) in
      encode_fields (id, attrs, payload ^ "x")
    | Half (i, form) ->
      let id, _, payload = fields.(nth i) in
      half_bytes form id payload
  in
  let honest = String.concat "" (Array.to_list spans) in
  (honest :: List.map probe probes) @ [ honest ]

let record_decode_is_reference =
  qtest ~long_factor:20 "decode = the reference decoder, warm table"
    (QCheck.make
       ~print:(fun (records, probes) ->
         String.concat "; " (List.map print_fields records)
         ^ " | " ^ String.concat "; " (List.map print_probe probes))
       gen_decode_case)
    (fun case -> List.for_all decodes_as_reference (decode_inputs case))

(* Two domains, each running three threads, decode overlapping streams
   of colliding ids through the one table; every outcome is the
   reference's. *)
let test_record_decode_domains () =
  let rng = Random.State.make [| 0xdec0de |] in
  let cases = QCheck.Gen.generate ~rand:rng ~n:40 gen_decode_case in
  let inputs = Array.of_list (List.concat_map decode_inputs cases) in
  let want = Array.map (outcomes Record_ref.decode) inputs in
  let n = Array.length inputs in
  let worker k () =
    let wrong = ref 0 in
    for round = 0 to 49 do
      for j = 0 to n - 1 do
        let i = (j + (k * 7) + round) mod n in
        if not (List.equal same_outcome (outcomes Record.decode inputs.(i)) want.(i)) then
          incr wrong
      done
    done;
    !wrong
  in
  let domain d () =
    let threads =
      List.init 3 (fun t ->
          let wrong = ref 0 in
          (wrong, Thread.create (fun () -> wrong := worker ((3 * d) + t) ()) ()))
    in
    List.fold_left
      (fun acc (wrong, th) ->
        Thread.join th;
        acc + !wrong)
      0 threads
  in
  let a = Domain.spawn (domain 0) and b = Domain.spawn (domain 1) in
  check Alcotest.int "outcomes unlike the reference's" 0 (Domain.join a + Domain.join b)

(* ----------------------------- template ----------------------------- *)

let test_template_linear_weights () =
  let t = Template.linear_weights ~dims:3 in
  let r = mk_record 1 [ 4; 2; 1 ] in
  let f = Template.apply t r in
  check Alcotest.int "dim" 3 (Array.length (Aqv_ref.Num_ref.linfun_coeffs f));
  check qt "f(1,1,1)" (Q.of_int 7) (Linfun.eval f (Array.make 3 Q.one));
  check qt "const" Q.zero (Linfun.const f)

let test_template_affine () =
  let r = mk_record 1 [ 3; -5 ] in
  let f = Template.apply Template.affine_1d r in
  check qt "f(2) = 3*2 - 5" (Q.of_int 1) (Linfun.eval f [| Q.of_int 2 |])

let test_template_arity_error () =
  let t = Template.linear_weights ~dims:3 in
  Alcotest.check_raises "too short" (Invalid_argument "Template.apply: record arity")
    (fun () -> ignore (Template.apply t (mk_record 1 [ 1; 2 ])))

let test_template_roundtrip () =
  List.iter
    (fun t ->
      let w = Aqv_util.Wire.writer () in
      Template.encode w t;
      let t' = Template.decode (Aqv_util.Wire.reader (Aqv_util.Wire.contents w)) in
      check Alcotest.string "name survives" (Format.asprintf "%a" Template.pp t)
        (Format.asprintf "%a" Template.pp t'))
    [ Template.linear_weights ~dims:4; Template.affine_1d ]

(* ------------------------------ table ------------------------------- *)

let test_table_basics () =
  let records = [ mk_record 0 [ 1; 2 ]; mk_record 1 [ 3; 4 ] ] in
  let t =
    Table.make ~records ~template:Template.affine_1d ~domain:(Aqv_num.Domain.of_ints [ (0, 1) ])
  in
  check Alcotest.int "size" 2 (Table.size t);
  check Alcotest.int "dim" 1 (Table.dim t);
  check Alcotest.bool "find_by_id" true (Table.position_by_id t 1 <> None);
  check Alcotest.bool "missing id" true (Table.position_by_id t 5 = None);
  let fns = Table.functions t in
  check qt "f0(1) = 3" (Q.of_int 3) (Linfun.eval fns.(0) [| Q.one |])

let test_table_duplicate_id () =
  Alcotest.check_raises "dup id" (Invalid_argument "Table.make: duplicate record id")
    (fun () ->
      ignore
        (Table.make
           ~records:[ mk_record 0 [ 1; 2 ]; mk_record 0 [ 3; 4 ] ]
           ~template:Template.affine_1d
           ~domain:(Aqv_num.Domain.of_ints [ (0, 1) ])))

let test_table_dim_mismatch () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Table.make: template/domain dimension mismatch") (fun () ->
      ignore
        (Table.make ~records:[ mk_record 0 [ 1; 2 ] ] ~template:Template.affine_1d
           ~domain:(Aqv_num.Domain.of_ints [ (0, 1); (0, 1) ])))

(* ----------------------------- workload ----------------------------- *)

let test_lines_distinct () =
  let t = Workload.lines_1d ~n:200 (Prng.create 1L) in
  check Alcotest.int "n" 200 (Table.size t);
  let seen = Hashtbl.create 200 in
  Array.iter
    (fun r ->
      let key = (Q.to_string (Record.attr r 0), Q.to_string (Record.attr r 1)) in
      if Hashtbl.mem seen key then Alcotest.fail "duplicate line";
      Hashtbl.add seen key ())
    (Table.records t)

let test_lines_deterministic () =
  let a = Workload.lines_1d ~n:50 (Prng.create 9L) in
  let b = Workload.lines_1d ~n:50 (Prng.create 9L) in
  Array.iter2
    (fun x y -> if not (Record.equal x y) then Alcotest.fail "not reproducible")
    (Table.records a) (Table.records b)

let test_scored_shape () =
  let t = Workload.scored ~n:100 ~dims:3 (Prng.create 2L) in
  check Alcotest.int "n" 100 (Table.size t);
  check Alcotest.int "dim" 3 (Table.dim t);
  Array.iter
    (fun r ->
      for i = 0 to 2 do
        if Q.sign (Record.attr r i) < 0 then Alcotest.fail "negative attribute"
      done)
    (Table.records t)

let test_weight_point_in_domain () =
  let t = Workload.scored ~n:10 ~dims:2 (Prng.create 3L) in
  let rng = Prng.create 4L in
  for _ = 1 to 100 do
    let x = Workload.weight_point t rng in
    if not (Aqv_num.Domain.contains (Table.domain t) x) then Alcotest.fail "outside domain"
  done

let test_scores_sorted () =
  let t = Workload.lines_1d ~n:100 (Prng.create 5L) in
  let rng = Prng.create 6L in
  let x = Workload.weight_point t rng in
  let s = Workload.scores_at t x in
  for i = 0 to Array.length s - 2 do
    if Q.compare (snd s.(i)) (snd s.(i + 1)) > 0 then Alcotest.fail "not sorted"
  done;
  check Alcotest.int "all there" 100 (Array.length s)

let test_range_for_result_size () =
  let t = Workload.lines_1d ~n:60 (Prng.create 7L) in
  let rng = Prng.create 8L in
  let x = Workload.weight_point t rng in
  List.iter
    (fun size ->
      let l, u = Workload.range_for_result_size t ~x ~size in
      let fns = Table.functions t in
      let count =
        Array.fold_left
          (fun acc f ->
            let v = Linfun.eval f x in
            if Q.compare l v <= 0 && Q.compare v u <= 0 then acc + 1 else acc)
          0 fns
      in
      check Alcotest.int (Printf.sprintf "size %d" size) size count)
    [ 1; 3; 10; 59; 60 ]

(* ------------------------------ trace -------------------------------- *)

let smoke_spec =
  {
    Spec.name = "t";
    seed = 7;
    records = 60;
    dims = 1;
    intercept_range = 1000;
    scheme = Spec.Multi;
    clients = 3;
    requests_per_client = 20;
    hot_set = 8;
    zipf_theta = 0.99;
    k_max = 8;
    mix = { Spec.topk = 0.5; range = 0.3; knn = 0.2 };
    republishes = 4;
    republish_rate_hz = 4.;
    replicas = 1;
    slo =
      {
        Spec.min_throughput_rps = Some 1.;
        p50_us_max = None;
        p99_us_max = None;
        p999_us_max = None;
        min_post_republish_frag_hit_rate = None;
      };
  }

let test_trace_deterministic () =
  (* same seed => byte-identical trace, identical digest, identical
     JSON summary — across two independent generations *)
  let gen () =
    let table = Workload.table_of_spec smoke_spec in
    Workload.Trace.generate smoke_spec table
  in
  let a = gen () and b = gen () in
  check Alcotest.string "sha256" a.Workload.Trace.sha256_hex b.Workload.Trace.sha256_hex;
  check Alcotest.string "json rows"
    (Aqv_util.Json.to_string (Workload.Trace.to_json a))
    (Aqv_util.Json.to_string (Workload.Trace.to_json b))

let test_trace_seed_sensitivity () =
  let t1 = Workload.Trace.generate smoke_spec (Workload.table_of_spec smoke_spec) in
  let spec2 = { smoke_spec with Spec.seed = 8 } in
  let t2 = Workload.Trace.generate spec2 (Workload.table_of_spec spec2) in
  check Alcotest.bool "different seeds, different traces" true
    (t1.Workload.Trace.sha256_hex <> t2.Workload.Trace.sha256_hex)

let test_trace_shape () =
  let t = Workload.Trace.generate smoke_spec (Workload.table_of_spec smoke_spec) in
  check Alcotest.int "clients" 3 (Array.length t.Workload.Trace.per_client);
  Array.iter
    (fun ops -> check Alcotest.int "requests" 20 (Array.length ops))
    t.Workload.Trace.per_client;
  check Alcotest.int "republishes" 4 (Array.length t.Workload.Trace.republishes);
  let topk, range, knn = Workload.Trace.op_counts t in
  check Alcotest.int "total ops" 60 (topk + range + knn);
  check Alcotest.int "hot hits account for every draw" 60
    (Array.fold_left ( + ) 0 t.Workload.Trace.hot_hits);
  Array.iter
    (fun (id, attrs) ->
      if id < 0 || id >= 60 then Alcotest.fail "republish id out of range";
      check Alcotest.int "attrs arity" 2 (Array.length attrs))
    t.Workload.Trace.republishes

let test_zipf_golden () =
  (* exact expected counts under a fixed seed: the sampler is part of
     the trace identity, so a distribution change is a breaking change *)
  let z = Workload.Zipf.create ~n:8 ~theta:0.99 in
  let rng = Prng.create 42L in
  let counts = Array.make 8 0 in
  for _ = 1 to 1000 do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  check
    Alcotest.(array int)
    "golden counts"
    [| 388; 175; 113; 90; 74; 58; 48; 54 |]
    counts

let test_zipf_skew () =
  let z = Workload.Zipf.create ~n:16 ~theta:1.2 in
  let rng = Prng.create 1L in
  let counts = Array.make 16 0 in
  for _ = 1 to 4000 do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 dominates rank 15" true (counts.(0) > 10 * counts.(15));
  Alcotest.check_raises "n < 1" (Invalid_argument "Workload.Zipf.create") (fun () ->
      ignore (Workload.Zipf.create ~n:0 ~theta:1.));
  Alcotest.check_raises "bad theta" (Invalid_argument "Workload.Zipf.create: theta")
    (fun () -> ignore (Workload.Zipf.create ~n:4 ~theta:(-1.)))

(* ------------------------------- spec -------------------------------- *)

let spec_json_base mix_field =
  Printf.sprintf
    {|{"name":"x","seed":1,"records":50,"clients":2,"requests_per_client":5,
       "mix":%s,"slo":{"min_throughput_rps":1.0}}|}
    mix_field

let test_spec_mix_not_normalized () =
  match Aqv_ref.Db_ref.spec_of_string (spec_json_base {|{"topk":0.5,"range":0.3,"knn":0.1}|}) with
  | Error (Spec.Mix_not_normalized s) ->
    check (Alcotest.float 1e-9) "reported sum" 0.9 s
  | Ok _ -> Alcotest.fail "non-normalized mix accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Spec.error_to_string e)

let test_spec_unknown_query_type () =
  match Aqv_ref.Db_ref.spec_of_string (spec_json_base {|{"topk":0.5,"range":0.3,"join":0.2}|}) with
  | Error (Spec.Unknown_query_type "join") -> ()
  | Ok _ -> Alcotest.fail "unknown query type accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Spec.error_to_string e)

let test_spec_valid_parses () =
  match Aqv_ref.Db_ref.spec_of_string (spec_json_base {|{"topk":0.5,"range":0.3,"knn":0.2}|}) with
  | Ok s ->
    check (Alcotest.float 1e-12) "topk" 0.5 s.Spec.mix.Spec.topk;
    check Alcotest.int "default hot_set" 16 s.Spec.hot_set;
    check Alcotest.int "default replicas" 1 s.Spec.replicas
  | Error e -> Alcotest.failf "valid spec rejected: %s" (Spec.error_to_string e)

(* Byte mutants of every checked-in spec (workloads/*.json, which the
   test's dune deps copy next to the build's test directory) through
   [Spec.load]: each gives [Ok] or a typed [Error], never an
   exception. *)
let test_spec_fuzz () =
  let dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "workloads" in
  let specs = List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir)) in
  check Alcotest.bool "specs found" true (specs <> []);
  let path = Filename.temp_file "aqv-spec" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iteri
        (fun i name ->
          let original = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
          Aqv_ref.Util_ref.iter_mutants ~seed:(Int64.of_int (700 + i)) ~attempts:200 original
            (fun mutated ->
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mutated);
              match Spec.load path with
              | Ok _ | Error _ -> ()
              | exception e ->
                Alcotest.failf "%s mutant %S raised %s" name mutated (Printexc.to_string e)))
        specs)

let () =
  Alcotest.run "aqv_db"
    [
      ( "record",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "digest sensitivity" `Quick test_record_digest_sensitivity;
          Alcotest.test_case "sentinels distinct" `Quick test_sentinel_digests_distinct;
        ] );
      ( "record bytes",
        [
          record_bytes_are_oracle;
          Alcotest.test_case "never the received bytes" `Quick test_record_bytes_not_received;
          Alcotest.test_case "two domains, one set of records" `Quick test_record_bytes_domains;
          record_equal_ignores_cache;
        ] );
      ( "decode",
        [
          record_decode_is_reference;
          Alcotest.test_case "two domains, threads, one table" `Quick test_record_decode_domains;
        ] );
      ( "template",
        [
          Alcotest.test_case "linear weights" `Quick test_template_linear_weights;
          Alcotest.test_case "affine 1d" `Quick test_template_affine;
          Alcotest.test_case "arity error" `Quick test_template_arity_error;
          Alcotest.test_case "wire roundtrip" `Quick test_template_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "duplicate id" `Quick test_table_duplicate_id;
          Alcotest.test_case "dimension mismatch" `Quick test_table_dim_mismatch;
        ] );
      ( "workload",
        [
          Alcotest.test_case "lines distinct" `Quick test_lines_distinct;
          Alcotest.test_case "lines deterministic" `Quick test_lines_deterministic;
          Alcotest.test_case "scored shape" `Quick test_scored_shape;
          Alcotest.test_case "weight point in domain" `Quick test_weight_point_in_domain;
          Alcotest.test_case "scores sorted" `Quick test_scores_sorted;
          Alcotest.test_case "range for result size" `Quick test_range_for_result_size;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_trace_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_trace_seed_sensitivity;
          Alcotest.test_case "shape" `Quick test_trace_shape;
          Alcotest.test_case "zipf golden counts" `Quick test_zipf_golden;
          Alcotest.test_case "zipf skew + invalid args" `Quick test_zipf_skew;
        ] );
      ( "spec",
        [
          Alcotest.test_case "mix not normalized" `Quick test_spec_mix_not_normalized;
          Alcotest.test_case "unknown query type" `Quick test_spec_unknown_query_type;
          Alcotest.test_case "valid spec parses" `Quick test_spec_valid_parses;
          Alcotest.test_case "byte mutants load or fail typed" `Quick test_spec_fuzz;
        ] );
    ]
