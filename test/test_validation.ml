(* Argument-validation and failure-path tests: every public entry point
   that documents an exception must actually raise it, with the
   documented message where one is fixed. *)

module Q = Aqv_num.Rational
module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng
module Domain = Aqv_num.Domain
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Template = Aqv_db.Template
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
open Aqv

let raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | exception e -> Alcotest.failf "%s: wrong exception %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: no exception" name)

let raises_div name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Division_by_zero -> ()
      | exception e -> Alcotest.failf "%s: wrong exception %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: no exception" name)

let raises_failure name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Failure _ -> ()
      | exception e -> Alcotest.failf "%s: wrong exception %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: no exception" name)

let table = lazy (Workload.lines_1d ~n:6 (Prng.create 700L))
let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 701L))
let index = lazy (Ifmh.build ~scheme:Ifmh.One_signature (Lazy.force table) (Lazy.force keypair))

(* The shapes [Domain.make] refuses, as wire bytes: no dimensions, an
   inverted interval, a zero-width one. Decoders must refuse them with
   [Failure] — an unchecked domain once reached an [assert] in the
   I-tree build, an exception class the serving stack never catches. *)
let bad_domains =
  let encode bounds =
    let w = Aqv_util.Wire.writer () in
    Aqv_util.Wire.varint w (List.length bounds);
    List.iter (fun (l, _) -> Q.encode w (Q.of_int l)) bounds;
    List.iter (fun (_, h) -> Q.encode w (Q.of_int h)) bounds;
    Aqv_util.Wire.contents w
  in
  [
    ("zero-dimension", encode []);
    ("inverted", encode [ (1, 0) ]);
    ("zero-width", encode [ (1, 1) ]);
  ]

let encoded enc v =
  let w = Aqv_util.Wire.writer () in
  enc w v;
  Aqv_util.Wire.contents w

(* [s] with its first occurrence of [sub] replaced by [by] *)
let splice s ~sub ~by =
  let n = String.length sub in
  let rec find k =
    if k + n > String.length s then invalid_arg "splice: not found"
    else if String.sub s k n = sub then k
    else find (k + 1)
  in
  let k = find 0 in
  String.sub s 0 k ^ by ^ String.sub s (k + n) (String.length s - k - n)

let decode_tests =
  let good_domain () = encoded Domain.encode (Table.domain (Lazy.force table)) in
  List.concat_map
    (fun (shape, bad) ->
      [
        raises_failure ("Domain.decode " ^ shape) (fun () ->
            Domain.decode (Aqv_util.Wire.reader bad));
        raises_failure ("Protocol.decode_bundle " ^ shape) (fun () ->
            let bundle =
              Protocol.bundle_of_index (Lazy.force index) (Lazy.force keypair).Signer.public
            in
            let bytes = encoded Protocol.encode_bundle bundle in
            Protocol.decode_bundle
              (Aqv_util.Wire.reader (splice bytes ~sub:(good_domain ()) ~by:bad)));
        raises_failure ("Ifmh.load " ^ shape) (fun () ->
            let bytes = encoded Ifmh.save (Lazy.force index) in
            Ifmh.load (Aqv_util.Wire.reader (splice bytes ~sub:(good_domain ()) ~by:bad)));
      ])
    bad_domains

let () =
  Alcotest.run "aqv_validation"
    [
      ( "bigint",
        [
          raises_div "divmod by zero" (fun () -> Z.divmod Z.one Z.zero);
          raises_invalid "mod_pow negative exponent" (fun () ->
              Z.mod_pow ~base:Z.two ~exp:Z.minus_one ~modulus:(Z.of_int 7));
          raises_invalid "mod_pow modulus 0" (fun () ->
              Z.mod_pow ~base:Z.two ~exp:Z.one ~modulus:Z.zero);
          raises_invalid "shift_left negative" (fun () -> Z.shift_left Z.one (-1));
          raises_invalid "to_bytes_be negative" (fun () -> Z.to_bytes_be Z.minus_one);
          raises_invalid "to_bytes_be width too small" (fun () ->
              Z.to_bytes_be ~width:1 (Z.of_int 100000));
          raises_invalid "random_below zero" (fun () ->
              Z.random_below (Prng.create 1L) Z.zero);
          raises_invalid "of_string empty" (fun () -> Z.of_string "");
          raises_invalid "of_string junk" (fun () -> Z.of_string "12x4");
        ] );
      ( "num",
        [
          raises_div "rational x/0" (fun () -> Q.of_ints 1 0);
          raises_invalid "of_decimal junk" (fun () -> Q.of_decimal "1.2.3");
          raises_invalid "domain empty" (fun () -> Domain.make []);
          raises_invalid "domain inverted" (fun () -> Domain.of_ints [ (3, 1) ]);
          raises_invalid "linfun eval arity" (fun () ->
              Aqv_num.Linfun.eval (Aqv_num.Linfun.of_ints [| 1; 2 |] 0) [| Q.one |]);
          raises_invalid "region classify zero diff" (fun () ->
              Aqv_num.Region.classify
                (Aqv_num.Region.of_domain (Domain.of_ints [ (0, 1) ]))
                (Aqv_num.Linfun.of_ints [| 0 |] 0));
        ] );
      ( "crypto",
        [
          raises_invalid "rsa tiny modulus" (fun () ->
              Signer.generate ~bits:64 Signer.Rsa (Prng.create 1L));
          raises_invalid "dsa nbits >= lbits" (fun () ->
              Aqv_crypto.Dsa.gen_params ~lbits:100 ~nbits:200 (Prng.create 1L));
          raises_invalid "prime gen 1 bit" (fun () ->
              Aqv_crypto.Prime.gen_prime (Prng.create 1L) ~bits:1);
          raises_invalid "rsa modulus above 8192 bits" (fun () ->
              Signer.generate ~bits:8200 Signer.Rsa (Prng.create 1L));
          raises_invalid "dsa p above 8192 bits" (fun () ->
              Aqv_crypto.Dsa.gen_params ~lbits:8200 ~nbits:160 (Prng.create 1L));
        ] );
      ( "db",
        [
          raises_invalid "workload n=0" (fun () -> Workload.lines_1d ~n:0 (Prng.create 1L));
          raises_invalid "scored dims=0" (fun () ->
              Workload.scored ~n:2 ~dims:0 (Prng.create 1L));
          raises_invalid "range size too big" (fun () ->
              Workload.range_for_result_size (Lazy.force table)
                ~x:[| Q.of_ints 1 2 |]
                ~size:100);
          raises_invalid "template dims 0" (fun () -> Template.linear_weights ~dims:0);
          raises_invalid "subset empty" (fun () -> Template.weighted_subset ~indices:[]);
        ] );
      ( "core",
        [
          raises_invalid "top_k k=0" (fun () -> Query.top_k ~x:[| Q.one |] ~k:0);
          raises_invalid "knn k=0" (fun () -> Query.knn ~x:[| Q.one |] ~k:0 ~y:Q.one);
          raises_invalid "range l>u" (fun () ->
              Query.range ~x:[| Q.one |] ~l:Q.one ~u:Q.zero);
          raises_invalid "count l>u" (fun () ->
              Count.answer (Lazy.force index) ~x:[| Q.of_ints 1 2 |] ~l:Q.one ~u:Q.zero);
          raises_invalid "batch empty" (fun () ->
              Batch.answer (Lazy.force index) ~x:[| Q.of_ints 1 2 |] []);
          raises_invalid "mesh 2d" (fun () ->
              Mesh.count_signatures (Workload.scored ~n:3 ~dims:2 (Prng.create 1L)));
          raises_invalid "answer outside domain" (fun () ->
              Server.answer (Lazy.force index) (Query.top_k ~x:[| Q.of_int 7 |] ~k:1));
        ] );
      ("decode", decode_tests);
    ]
