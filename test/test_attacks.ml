(* Adversarial tests: every tampering the paper's security analysis
   (§4.1) argues about — and several it does not — must be rejected by
   the verifying client, under both signing schemes and for the mesh
   baseline. Each attack mutates an otherwise honest server response. *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Template = Aqv_db.Template
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
module Db_ref = Aqv_ref.Db_ref
open Aqv
open Aqv_baseline

let check = Alcotest.check

let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 77L))
let table = lazy (Workload.lines_1d ~n:25 (Prng.create 78L))
let index_one = lazy (Ifmh.build ~scheme:Ifmh.One_signature (Lazy.force table) (Lazy.force keypair))
let index_multi = lazy (Ifmh.build ~scheme:Ifmh.Multi_signature (Lazy.force table) (Lazy.force keypair))
let mesh = lazy (Mesh.build (Lazy.force table) (Lazy.force keypair))

let ctx () =
  let t = Lazy.force table in
  Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
    ~verify_signature:(Lazy.force keypair).Signer.verify

let forged_record id =
  Record.make ~id ~attrs:[| Q.of_int 3; Q.of_int 500 |] ~payload:"forged" ()

(* an honest response to mutate: a mid-list range query with >= 3 records *)
let honest index =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 79L) in
  let l, u = Workload.range_for_result_size t ~x ~size:5 in
  let query = Query.range ~x ~l ~u in
  let resp = Server.answer index query in
  assert (List.length resp.Server.result = 5);
  (query, resp)

let expect_reject name query resp =
  match Client.verify (ctx ()) query resp with
  | Ok () -> Alcotest.failf "%s: attack was accepted" name
  | Error _ -> ()

let expect_reject_as name expected query resp =
  match Client.verify (ctx ()) query resp with
  | Ok () -> Alcotest.failf "%s: attack was accepted" name
  | Error r ->
    check Alcotest.string name
      (Client.rejection_to_string expected)
      (Client.rejection_to_string r)

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

let with_result resp result = { resp with Server.result }
let with_vo resp vo = { resp with Server.vo }

(* ------------------------- IFMH, both schemes ----------------------- *)

(* Every tampering of an honest reply [resp] that [against_index]
   checks, named, with the rejection it must get where one is pinned.
   Each is applied only where the reply has the records it needs. The
   reference law feeds them to both verifiers too. *)
let tampers resp =
  let vo = resp.Server.vo and result = resp.Server.result in
  let count = List.length result in
  let result_case name ?expect min_count f =
    if count >= min_count then [ (name, expect, with_result resp (f result)) ] else []
  in
  let at i f = List.mapi (fun j r -> if j = i then f r else r) in
  let flip_first_byte d =
    let d' = Bytes.of_string d in
    Bytes.set d' 0 (Char.chr (Char.code (Bytes.get d' 0) lxor 1));
    Bytes.to_string d'
  in
  List.concat
    [
      (* Case 1 of §4.1: drop a middle record *)
      result_case "drop middle record" 3 (drop_nth 2);
      (* drop the first / last record without fixing the VO *)
      result_case "drop first record" 1 (drop_nth 0);
      result_case "drop last record" 1 (drop_nth (count - 1));
      (* substitute a record body (same id, different attributes) *)
      result_case "substitute record" 3 (at 2 (fun r -> forged_record (Record.id r)));
      (* tamper with a payload only *)
      result_case "tamper payload" 2
        (at 1 (fun r -> Record.make ~id:(Record.id r) ~attrs:(Db_ref.record_attrs r) ~payload:"evil" ()));
      (* reorder two records *)
      result_case "reorder records" 2 (function a :: b :: rest -> b :: a :: rest | l -> l);
      (* duplicate a record (and keep the count plausible by dropping another) *)
      result_case "duplicate record" 2 (function a :: _ :: rest -> a :: a :: rest | l -> l);
      [
        (* Case 2 of §4.1: forge a boundary record *)
        ("forge left boundary", None,
          with_vo resp { vo with Vo.left = Vo.Boundary_record (forged_record 999) });
        ("forge right boundary", None,
          with_vo resp { vo with Vo.right = Vo.Boundary_record (forged_record 998) });
        (* pretend the window sits elsewhere *)
        ("shift window_lo", None, with_vo resp { vo with Vo.window_lo = vo.Vo.window_lo + 1 });
        (* lie about the database size *)
        ("inflate n_leaves", None, with_vo resp { vo with Vo.n_leaves = vo.Vo.n_leaves + 1 });
        ("deflate n_leaves", None, with_vo resp { vo with Vo.n_leaves = vo.Vo.n_leaves - 1 });
      ];
      (* corrupt the FMH range proof *)
      (match vo.Vo.fmh_proof with
      | d :: rest ->
        [ ("corrupt fmh proof", None, with_vo resp { vo with Vo.fmh_proof = flip_first_byte d :: rest }) ]
      | [] -> []);
      (* flip a signature bit *)
      (let s = Bytes.of_string vo.Vo.signature in
       Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 8));
       [ ("flip signature bit", Some Client.Bad_signature,
           with_vo resp { vo with Vo.signature = Bytes.to_string s }) ]);
    ]

let against_index name index () =
  ignore name;
  let query, resp = honest index in

  (* sanity: the unmodified response is accepted *)
  (match Client.verify (ctx ()) query resp with
  | Ok () -> ()
  | Error r -> Alcotest.failf "honest response rejected: %s" (Client.rejection_to_string r));

  List.iter
    (fun (name, expect, tampered) ->
      match expect with
      | None -> expect_reject name query tampered
      | Some reason -> expect_reject_as name reason query tampered)
    (tampers resp);

  (* answer a *different* (narrower) query and present it for the original *)
  (let x = Query.x query in
   let l, u = Workload.range_for_result_size (Lazy.force table) ~x ~size:3 in
   let narrower = Server.answer index (Query.range ~x ~l ~u) in
   expect_reject_as "narrower answer replay" Client.Boundary_violation query narrower);

  (* answer computed in a different subdomain (stale replay) *)
  (let t = Lazy.force table in
   let rng = Prng.create 80L in
   let rec find_other_subdomain () =
     let x2 = Workload.weight_point t rng in
     let _, leaf1 = Itree.locate (Ifmh.itree index) (Query.x query) in
     let _, leaf2 = Itree.locate (Ifmh.itree index) x2 in
     if leaf1.Itree.id = leaf2.Itree.id then find_other_subdomain () else x2
   in
   let x2 = find_other_subdomain () in
   let l2, u2 = Workload.range_for_result_size t ~x:x2 ~size:5 in
   let replay = Server.answer index (Query.range ~x:x2 ~l:l2 ~u:u2) in
   expect_reject "stale subdomain replay" query replay)

let test_topk_count index () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 81L) in
  let short = Server.answer index (Query.top_k ~x ~k:4) in
  (* present a top-4 answer for a top-5 query *)
  expect_reject_as "short top-k" Client.Count_mismatch (Query.top_k ~x ~k:5) short;
  (* present a top-5 answer for a top-4 query *)
  let long = Server.answer index (Query.top_k ~x ~k:5) in
  expect_reject_as "long top-k" Client.Count_mismatch (Query.top_k ~x ~k:4) long

let test_knn_shift index () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 82L) in
  let scores = Workload.scores_at t x in
  let y_low = snd scores.(2) and y_high = snd scores.(20) in
  let resp_low = Server.answer index (Query.knn ~x ~k:3 ~y:y_low) in
  (* a window of near-neighbours of y_low is not a valid answer for y_high *)
  expect_reject "shifted knn window" (Query.knn ~x ~k:3 ~y:y_high) resp_low

let test_cross_key () =
  (* signatures from a different owner's key must be rejected *)
  let t = Lazy.force table in
  let other_kp = Signer.generate ~bits:512 Signer.Rsa (Prng.create 83L) in
  let other_index = Ifmh.build ~scheme:Ifmh.One_signature t other_kp in
  let x = Workload.weight_point t (Prng.create 84L) in
  let query = Query.top_k ~x ~k:3 in
  let resp = Server.answer other_index query in
  expect_reject_as "cross key" Client.Bad_signature query resp

let test_wrong_domain_client () =
  (* a client configured with a different domain must reject multi-sig
     proofs built for the real one *)
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 85L) in
  let query = Query.top_k ~x ~k:3 in
  let resp = Server.answer (Lazy.force index_multi) query in
  let bad_ctx =
    Client.make_ctx ~template:(Table.template t)
      ~domain:(Aqv_num.Domain.of_ints [ (0, 2) ])
      ~verify_signature:(Lazy.force keypair).Signer.verify
  in
  match Client.verify bad_ctx query resp with
  | Ok () -> Alcotest.fail "accepted under wrong domain"
  | Error _ -> ()

(* ------------------------------- mesh ------------------------------- *)

let mesh_honest () =
  let t = Lazy.force table in
  let x = Workload.weight_point t (Prng.create 86L) in
  let l, u = Workload.range_for_result_size t ~x ~size:5 in
  let query = Query.range ~x ~l ~u in
  (query, Mesh.answer (Lazy.force mesh) query)

let mesh_verify query resp =
  let t = Lazy.force table in
  Mesh.verify ~template:(Table.template t) ~domain:(Table.domain t)
    ~verify_signature:(Lazy.force keypair).Signer.verify query resp

let expect_mesh_reject name query resp =
  match mesh_verify query resp with
  | Ok () -> Alcotest.failf "%s: attack was accepted" name
  | Error _ -> ()

let test_mesh_attacks () =
  let query, resp = mesh_honest () in
  (match mesh_verify query resp with
  | Ok () -> ()
  | Error r -> Alcotest.failf "honest mesh rejected: %s" (Semantics.rejection_to_string r));
  (* drop a middle record: chain length no longer matches the links *)
  expect_mesh_reject "mesh drop record" query
    { resp with Mesh.result = drop_nth 2 resp.Mesh.result };
  (* drop record and its link *)
  (match resp.Mesh.vo.Mesh.links with
  | l0 :: _ :: rest ->
    expect_mesh_reject "mesh drop record+link" query
      {
        Mesh.result = drop_nth 0 resp.Mesh.result;
        vo = { resp.Mesh.vo with Mesh.links = l0 :: rest };
      }
  | _ -> Alcotest.fail "unexpected link shape");
  (* substitute a record *)
  expect_mesh_reject "mesh substitute" query
    {
      resp with
      Mesh.result =
        List.mapi
          (fun i r -> if i = 1 then forged_record (Record.id r) else r)
          resp.Mesh.result;
    };
  (* flip a signature bit *)
  (match resp.Mesh.vo.Mesh.links with
  | l0 :: rest ->
    let s = Bytes.of_string l0.Mesh.signature in
    Bytes.set s 2 (Char.chr (Char.code (Bytes.get s 2) lxor 1));
    expect_mesh_reject "mesh flip signature" query
      {
        resp with
        Mesh.vo =
          {
            resp.Mesh.vo with
            Mesh.links = { l0 with Mesh.signature = Bytes.to_string s } :: rest;
          };
      }
  | [] -> Alcotest.fail "no links");
  (* stale cell replay: a response for a far-away x2 *)
  (let t = Lazy.force table in
   let rng = Prng.create 87L in
   let x = Query.x query in
   let rec far_x () =
     let x2 = Workload.weight_point t rng in
     if Q.equal x2.(0) x.(0) then far_x () else x2
   in
   let x2 = far_x () in
   let l2, u2 = Workload.range_for_result_size t ~x:x2 ~size:5 in
   let replay = Mesh.answer (Lazy.force mesh) (Query.range ~x:x2 ~l:l2 ~u:u2) in
   (* only meaningful if the two inputs fall in different cells; with
      n=25 lines the cells are tiny, so this is virtually certain *)
   match mesh_verify query replay with
   | Ok () ->
     (* the replayed spans may legitimately cover x if both points share
        all spans; verify the result is then actually correct *)
     let sorted = Workload.scores_at t x in
     ignore sorted
   | Error _ -> ())

(* the replay leniency above is deliberately weak; pin the common case *)
let test_mesh_span_tamper () =
  let query, resp = mesh_honest () in
  match resp.Mesh.vo.Mesh.links with
  | l0 :: rest ->
    (* claim a span that does not cover x *)
    let lo, _ = l0.Mesh.span in
    let fake = { l0 with Mesh.span = (Q.sub lo Q.one, Q.sub lo (Q.of_ints 1 2)) } in
    expect_mesh_reject "mesh span tamper" query
      { resp with Mesh.vo = { resp.Mesh.vo with Mesh.links = fake :: rest } }
  | [] -> Alcotest.fail "no links"

(* --------------------- freshness after updates ---------------------- *)

(* After the owner applies an update, the previous version becomes the
   adversary's best forgery: every byte of it once verified. A client
   holding the new bundle (min_epoch bumped) must reject it — and a
   server still answering from the stale subdomain list must not be able
   to dress it up as the new version even for a client whose minimum
   epoch still admits the old one. *)
let expect_reject_as' ctx name expected query resp =
  match Client.verify ctx query resp with
  | Ok () -> Alcotest.failf "%s: attack was accepted" name
  | Error r ->
    check Alcotest.string name
      (Client.rejection_to_string expected)
      (Client.rejection_to_string r)

let test_update_replay scheme () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  let base = Ifmh.build ~scheme ~epoch:1 t kp in
  let changes =
    [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 9; Q.of_int 13 |] ()) ]
  in
  let updated = Ifmh.apply kp changes base in
  let x = Workload.weight_point t (Prng.create 88L) in
  let l, u = Workload.range_for_result_size t ~x ~size:5 in
  let query = Query.range ~x ~l ~u in
  let fresh_ctx = Client.with_min_epoch (ctx ()) (Ifmh.epoch updated) in
  (* the honest post-update response is accepted at the new minimum *)
  (match Client.verify fresh_ctx query (Server.answer updated query) with
  | Ok () -> ()
  | Error r ->
    Alcotest.failf "honest post-update rejected: %s" (Client.rejection_to_string r));
  (* replaying the pre-update response is exactly the freshness attack
     epochs exist for *)
  let stale = Server.answer base query in
  (match Client.verify fresh_ctx query stale with
  | Ok () -> Alcotest.fail "stale replay accepted"
  | Error r ->
    check Alcotest.string "stale replay"
      (Client.rejection_to_string Client.Stale_epoch)
      (Client.rejection_to_string r));
  (* stale content relabelled with the new epoch: the signature no
     longer covers the claimed digest *)
  let lenient_ctx = Client.with_min_epoch (ctx ()) (Ifmh.epoch base) in
  let relabelled = { stale.Server.vo with Vo.epoch = Ifmh.epoch updated } in
  expect_reject_as' lenient_ctx "stale content, new epoch" Client.Bad_signature query
    (with_vo stale relabelled);
  (* even splicing in the *genuine* new-version signature cannot launder
     the stale subdomain list: the digest commits the constraints and
     the FMH root, and the update changed them *)
  let new_signature =
    match scheme with
    | Ifmh.One_signature -> Ifmh.root_signature updated
    | Ifmh.Multi_signature ->
      let _, leaf = Itree.locate (Ifmh.itree updated) x in
      Ifmh.leaf_signature updated leaf.Itree.id
  in
  expect_reject_as' lenient_ctx "stale content, spliced new signature"
    Client.Bad_signature query
    (with_vo stale { relabelled with Vo.signature = new_signature })

(* ------------------------- byte-level fuzzer ------------------------ *)

(* the mutation rule every decoder fuzz test shares (test/ref/util_ref.ml) *)
let iter_mutants = Aqv_ref.Util_ref.iter_mutants

let encoded enc v =
  let w = Aqv_util.Wire.writer () in
  enc w v;
  Aqv_util.Wire.contents w

(* Serialize an honest response, mutate random bytes, and require that
   anything that still decodes is rejected unless it is byte-identical
   to the original. *)
let test_fuzz_mutations index () =
  let query, resp = honest index in
  let original = encoded Server.encode_response resp in
  let accepted_mutants = ref 0 in
  iter_mutants ~seed:91L ~attempts:400 original (fun mutated ->
      match Server.decode_response (Aqv_util.Wire.reader mutated) with
      | exception (Failure _ | Invalid_argument _) -> () (* malformed wire: fine *)
      | resp' ->
        (* only acceptable if it decodes to exactly the same response *)
        if Client.accepts (ctx ()) query resp'
           && not (String.equal (encoded Server.encode_response resp') original)
        then incr accepted_mutants);
  check Alcotest.int "no accepted mutants" 0 !accepted_mutants

(* Decoders of untrusted bytes may refuse only with [Failure] or
   [Invalid_argument]: the engine turns exactly those into [Refused],
   and anything else kills the session (or, at recovery, the server).
   Mutants of a snapshot go all the way through [Ifmh.load]'s rebuild,
   so a domain or record the decoder lets through must not trip an
   assertion further in. *)
let decoder_fuzz ~seed original decode =
  iter_mutants ~seed ~attempts:400 original (fun mutated ->
      match decode (Aqv_util.Wire.reader mutated) with
      | exception (Failure _ | Invalid_argument _) -> ()
      | exception e ->
        Alcotest.failf "mutant %s escaped as %s" (Aqv_util.Hex.encode mutated)
          (Printexc.to_string e)
      | _ -> ())

let small_index =
  lazy
    (Ifmh.build ~scheme:Ifmh.Multi_signature
       (Workload.lines_1d ~n:20 (Prng.create 95L))
       (Lazy.force keypair))

let test_fuzz_snapshot () =
  decoder_fuzz ~seed:96L (encoded Ifmh.save (Lazy.force small_index))
    (fun r -> ignore (Ifmh.load r))

let test_fuzz_bundle () =
  let bundle =
    Protocol.bundle_of_index (Lazy.force small_index) (Lazy.force keypair).Signer.public
  in
  decoder_fuzz ~seed:97L (encoded Protocol.encode_bundle bundle)
    (fun r -> ignore (Protocol.decode_bundle r))

(* The wire decoders a server or client runs on every frame. Request
   mutants go on through [Protocol.handle], so a request the decoder
   lets through must not trip anything further in on a 1-D or a 2-D
   index; delta mutants go on through [Ifmh.apply_delta]. *)
let small_index_2d =
  lazy
    (Ifmh.build ~scheme:Ifmh.One_signature
       (Workload.scored ~attr_range:20 ~n:7 ~dims:2 (Prng.create 98L))
       (Lazy.force keypair))

let small_delta =
  lazy
    (let index = Lazy.force small_index in
     let records = Table.records (Ifmh.table index) in
     let changes =
       [
         Update.Delete (Record.id records.(0));
         Update.Modify (Record.make ~id:(Record.id records.(1)) ~attrs:(Db_ref.record_attrs records.(2)) ());
       ]
     in
     Ifmh.delta ~changes (Ifmh.apply (Lazy.force keypair) changes index))

let requests_for index =
  let table = Ifmh.table index in
  let rng = Prng.create 99L in
  let x = Workload.weight_point table rng in
  let l, u = Workload.range_for_result_size table ~x ~size:3 in
  let y = snd (Workload.scores_at table x).(0) in
  [
    Protocol.Run_query (Query.top_k ~x ~k:3);
    Protocol.Run_query (Query.range ~x ~l ~u);
    Protocol.Run_query (Query.knn ~x ~k:3 ~y);
    Protocol.Run_rank { x; record_id = Record.id (Table.records table).(0) };
    Protocol.Run_count { x; l; u };
    Protocol.Get_stats;
    Protocol.Republish (Lazy.force small_delta);
    Protocol.Subscribe { from_epoch = None };
    Protocol.Subscribe { from_epoch = Some 3 };
  ]

let test_fuzz_requests () =
  List.iteri
    (fun i index ->
      List.iteri
        (fun j req ->
          decoder_fuzz
            ~seed:(Int64.of_int (1_000 + (100 * i) + j))
            (encoded Protocol.encode_request req)
            (fun r -> ignore (Protocol.handle index (Protocol.decode_request r))))
        (requests_for index))
    [ Lazy.force small_index; Lazy.force small_index_2d ]

let test_fuzz_replies () =
  let index = Lazy.force small_index in
  let table = Ifmh.table index in
  let x = Workload.weight_point table (Prng.create 100L) in
  let l, u = Workload.range_for_result_size table ~x ~size:3 in
  let replies =
    [
      Protocol.Answer (Server.answer index (Query.top_k ~x ~k:3));
      Protocol.Rank_answer
        (Server.rank index ~x ~record_id:(Record.id (Table.records table).(0)));
      Protocol.Rank_answer None;
      Protocol.Count_answer (Count.answer index ~x ~l ~u);
      Protocol.Refused "no";
      Protocol.Stats [ ("req_query", 3); ("epoch", 1) ];
      Protocol.Republished 2;
      Protocol.Hello { epoch = 2 };
      Protocol.Delta_frame { base_epoch = 0; delta = Lazy.force small_delta };
      Protocol.Snapshot_frame { index = encoded Ifmh.save index };
    ]
  in
  List.iteri
    (fun j reply ->
      decoder_fuzz
        ~seed:(Int64.of_int (2_000 + j))
        (encoded Protocol.encode_reply reply)
        (fun r -> ignore (Protocol.decode_reply r)))
    replies

let test_fuzz_count () =
  let index = Lazy.force small_index in
  let table = Ifmh.table index in
  let x = Workload.weight_point table (Prng.create 101L) in
  let l, u = Workload.range_for_result_size table ~x ~size:4 in
  decoder_fuzz ~seed:102L (encoded Count.encode (Count.answer index ~x ~l ~u))
    (fun r -> ignore (Count.decode r))

let test_fuzz_delta () =
  let index = Lazy.force small_index in
  decoder_fuzz ~seed:103L
    (encoded Ifmh.encode_delta (Lazy.force small_delta))
    (fun r -> ignore (Ifmh.apply_delta (Ifmh.decode_delta r) index))

(* --------------------------- durable store -------------------------- *)

(* Tampering with the files under a store directory must surface as a
   typed recovery error — never as a served index. Signatures are not
   re-verified at recovery (the engine's clients do that per-response),
   so these attacks target the layers the store itself owns: checksums,
   epoch continuity, and replay validity. *)

module Store = Aqv_store.Store
module Wal = Aqv_store.Wal
module Serror = Aqv_store.Error

let store_keypair =
  {
    Signer.algorithm = Signer.Rsa;
    sign = (fun d -> "sig:" ^ d);
    verify = (fun d s -> String.equal s ("sig:" ^ d));
    signature_size = 36;
    public = Signer.Unverifiable;
  }

let store_read path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let store_write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec store_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun e -> store_rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aqv-attack-store-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then store_rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try store_rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

let store_err_name = function
  | Serror.Bad_magic _ -> "Bad_magic"
  | Serror.Checksum_mismatch _ -> "Checksum_mismatch"
  | Serror.Truncated _ -> "Truncated"
  | Serror.Decode_failed _ -> "Decode_failed"
  | Serror.Header_mismatch _ -> "Header_mismatch"
  | Serror.Epoch_gap _ -> "Epoch_gap"
  | Serror.Replay_failed _ -> "Replay_failed"
  | Serror.Io_error _ -> "Io_error"

let expect_recovery_rejects name dir =
  match Store.open_dir dir with
  | Ok (store, index, _) ->
    Store.close store;
    Alcotest.failf "%s: tampered store was served (epoch %d)" name
      (Ifmh.epoch index)
  | Error e -> check Alcotest.string name name (store_err_name e)

(* a tampered snapshot body must fail the CRC, whichever bit flips *)
let test_store_snapshot_flip () =
  with_store_dir (fun dir ->
      let table = Workload.lines_1d ~n:10 (Prng.create 90L) in
      let index = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table store_keypair in
      Store.close (Store.publish ~dir index);
      let path = Store.snapshot_path dir in
      let good = store_read path in
      List.iter
        (fun pos ->
          let b = Bytes.of_string good in
          Bytes.set b pos (Char.chr (Char.code good.[pos] lxor 0x01));
          store_write path (Bytes.to_string b);
          expect_recovery_rejects "Checksum_mismatch" dir)
        [ 20; String.length good / 2; String.length good - 10 ])

(* a CRC-valid frame spliced in from another database: the checksum
   holds, so the attack must die at replay, not be served *)
let test_store_spliced_frame () =
  with_store_dir (fun dir ->
      let table_a = Workload.lines_1d ~n:10 (Prng.create 91L) in
      let index_a = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table_a store_keypair in
      Store.close (Store.publish ~dir index_a);
      (* database B: same epoch, but its id space starts past A's, so a
         delta deleting one of B's records names an id A never had *)
      let table_b =
        Table.make
          ~records:
            (Array.to_list
               (Array.map
                  (fun r ->
                    Record.make ~id:(Record.id r + 500) ~attrs:(Db_ref.record_attrs r) ())
                  (Table.records table_a)))
          ~template:(Table.template table_a) ~domain:(Table.domain table_a)
      in
      let index_b = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table_b store_keypair in
      let changes = [ Update.Delete (Record.id (Table.records table_b).(0)) ] in
      let index_b' = Ifmh.apply store_keypair changes index_b in
      let delta_b = Ifmh.delta ~changes index_b' in
      let w = Aqv_util.Wire.writer () in
      Ifmh.encode_delta w delta_b;
      Aqv_ref.Store_ref.append_frame dir
        { Wal.base_epoch = 1; delta = Aqv_util.Wire.contents w };
      expect_recovery_rejects "Replay_failed" dir)

(* a frame claiming a future base epoch: accepting it would let an
   attacker who captured one log frame skip the chain between *)
let test_store_epoch_gap () =
  with_store_dir (fun dir ->
      let table = Workload.lines_1d ~n:10 (Prng.create 92L) in
      let index = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table store_keypair in
      Store.close (Store.publish ~dir index);
      let changes =
        [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 9; Q.of_int 9 |] ()) ]
      in
      let index5 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:5 table store_keypair in
      let index6 = Ifmh.apply store_keypair changes index5 in
      let delta = Ifmh.delta ~changes index6 in
      let w = Aqv_util.Wire.writer () in
      Ifmh.encode_delta w delta;
      Aqv_ref.Store_ref.append_frame dir
        { Wal.base_epoch = 5; delta = Aqv_util.Wire.contents w };
      expect_recovery_rejects "Epoch_gap" dir)

(* ---------------------------- replication --------------------------- *)

(* Replication adds no trust: a read replica serves whatever signed
   epoch it durably replayed, so the two attack surfaces are freshness
   (a lagging or frozen replica serving an old epoch) and the delta
   stream itself (a relabelled or tampered frame between primary and
   replica). The first dies at the client's minimum epoch, the second
   at replay or at verification — never silently. *)

let test_replication_stale_replica () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  let base = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 t kp in
  let changes =
    [ Update.Modify (Record.make ~id:1 ~attrs:[| Q.of_int 7; Q.of_int 11 |] ()) ]
  in
  let updated = Ifmh.apply kp changes base in
  let x = Workload.weight_point t (Prng.create 93L) in
  let l, u = Workload.range_for_result_size t ~x ~size:4 in
  let query = Query.range ~x ~l ~u in
  let ctx2 = Client.with_min_epoch (ctx ()) (Ifmh.epoch updated) in
  (* an up-to-date replica's answer verifies *)
  (match Client.verify ctx2 query (Server.answer updated query) with
  | Ok () -> ()
  | Error r ->
    Alcotest.failf "honest replica rejected: %s" (Client.rejection_to_string r));
  (* a replica still serving the previous epoch is correctly signed --
     and exactly what the client's minimum epoch must refuse *)
  expect_reject_as' ctx2 "lagging replica" Client.Stale_epoch query
    (Server.answer base query)

let test_replication_tampered_delta () =
  let t = Lazy.force table in
  let kp = Lazy.force keypair in
  let base = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 t kp in
  let changes =
    [ Update.Modify (Record.make ~id:2 ~attrs:[| Q.of_int 5; Q.of_int 21 |] ()) ]
  in
  let updated = Ifmh.apply kp changes base in
  let d = Ifmh.delta ~changes updated in
  (* replaying a captured old frame over a newer replica regresses the
     epoch and must die at replay *)
  let updated2 =
    Ifmh.apply kp
      [ Update.Modify (Record.make ~id:3 ~attrs:[| Q.of_int 4; Q.of_int 17 |] ()) ]
      updated
  in
  (match Ifmh.apply_delta d updated2 with
  | exception Failure msg ->
    check Alcotest.string "replayed old frame" "Ifmh.apply_delta: epoch regression"
      msg
  | _ -> Alcotest.fail "epoch-regressing delta was replayed");
  (* padding the change list leaves the signature count wrong *)
  let padded =
    Ifmh.delta_with_changes
      (Update.Insert (Record.make ~id:999 ~attrs:[| Q.of_int 6; Q.of_int 2 |] ())
      :: changes)
      d
  in
  (match Ifmh.apply_delta padded base with
  | exception Failure msg ->
    check Alcotest.string "padded change list"
      "Ifmh.apply_delta: signature count mismatch" msg
  | _ -> Alcotest.fail "padded delta was replayed");
  (* same-shape content tampering (the legit epoch and signatures over
     a doctored change): if the replica replays it at all, no verifying
     client accepts what it serves *)
  let swapped =
    Ifmh.delta_with_changes
      [ Update.Modify (Record.make ~id:2 ~attrs:[| Q.of_int 5; Q.of_int 22 |] ()) ]
      d
  in
  let x = Workload.weight_point t (Prng.create 94L) in
  let l, u = Workload.range_for_result_size t ~x ~size:4 in
  let query = Query.range ~x ~l ~u in
  let ctx2 = Client.with_min_epoch (ctx ()) (Ifmh.epoch updated) in
  match Ifmh.apply_delta swapped base with
  | exception Failure _ -> ()
  | forged -> (
    match Client.verify ctx2 query (Server.answer forged query) with
    | Ok () -> Alcotest.fail "tampered delta produced an accepted answer"
    | Error _ -> ())

(* A record too short for the template, or a query point of the wrong
   dimension, ends in [Malformed], never in an escaping
   [Invalid_argument]: in the subdomain proof, whose side tests run
   before the signature is checked, and in the window re-check. *)
let test_unscorable index () =
  let query, resp = honest index in
  let short r = Record.make ~id:(Record.id r) ~attrs:[| Record.attr r 0 |] () in
  let vo = resp.Server.vo in
  let subdomain =
    match vo.Vo.subdomain with
    | Vo.One_sig_path (s :: rest) -> Vo.One_sig_path ({ s with Vo.rp = short s.Vo.rp } :: rest)
    | Vo.Multi_sig_constraints ((rp, rq, side) :: rest) ->
      Vo.Multi_sig_constraints ((short rp, rq, side) :: rest)
    | _ -> Alcotest.fail "the honest reply proves no side test"
  in
  expect_reject_as "short record in the subdomain proof" Client.Malformed query
    (with_vo resp { vo with Vo.subdomain });
  let window ~x result =
    match
      Semantics.check_window ~template:(Table.template (Lazy.force table)) ~x
        ~n:(vo.Vo.n_leaves - 2) ~query ~left:vo.Vo.left ~right:vo.Vo.right ~result
    with
    | () -> "accepted"
    | exception Semantics.Reject r -> Semantics.rejection_to_string r
  in
  let x = Query.x query and result = resp.Server.result in
  let malformed = Semantics.rejection_to_string Semantics.Malformed in
  check Alcotest.string "honest window" "accepted" (window ~x result);
  check Alcotest.string "short record in the window" malformed
    (window ~x (short (List.hd result) :: List.tl result));
  check Alcotest.string "x of the wrong dimension" malformed (window ~x:(Array.append x x) result)

(* ------------------------- client digest memo ----------------------- *)

(* A ctx memoizes record digests and FMH node hashes across the replies
   it verifies. A hit must return exactly what a fresh computation
   would, so a warm ctx decides every reply as a fresh one does: the
   same acceptance, the same rejection name. *)

let decision ctx query resp =
  match Client.verify ctx query resp with
  | Ok () -> "accepted"
  | Error r -> Client.rejection_to_string r

(* the honest reply of [test_fuzz_mutations] and every mutant of it
   that still decodes *)
let decoded_mutants index =
  let query, resp = honest index in
  let original = encoded Server.encode_response resp in
  let mutants = ref [] in
  iter_mutants ~seed:91L ~attempts:400 original (fun mutated ->
      match Server.decode_response (Aqv_util.Wire.reader mutated) with
      | exception (Failure _ | Invalid_argument _) -> ()
      | resp' -> mutants := resp' :: !mutants);
  (query, resp, List.rev !mutants)

(* a ctx's first verification runs memo-free: the second fills the memo *)
let primed query resp =
  let c = ctx () in
  for _ = 1 to 2 do
    check Alcotest.string "priming reply accepted" "accepted" (decision c query resp)
  done;
  c

let test_memo_warm_mutants index () =
  let query, resp, mutants = decoded_mutants index in
  check Alcotest.bool "some mutants decode" true (mutants <> []);
  let hits = ref 0 in
  List.iter
    (fun m ->
      let warm = primed query resp in
      check Alcotest.string "warm = fresh decision" (decision (ctx ()) query m)
        (decision warm query m);
      hits := !hits + (Client.memo_counters warm).Client.record_hits)
    mutants;
  check Alcotest.bool "the memo answered lookups" true (!hits > 0)

let test_memo_mutants_first index () =
  let query, resp, mutants = decoded_mutants index in
  let expected = List.map (fun m -> decision (ctx ()) query m) mutants in
  let c = ctx () in
  List.iter (fun m -> ignore (Client.verify c query m)) mutants;
  check Alcotest.string "honest still accepted" "accepted" (decision c query resp);
  check
    Alcotest.(list string)
    "decisions after priming with every mutant" expected
    (List.map (fun m -> decision c query m) mutants)

let test_memo_same_id_misses index () =
  let query, resp = honest index in
  let warm = primed query resp in
  let tamper name f =
    let forged =
      with_result resp (List.mapi (fun i r -> if i = 1 then f r else r) resp.Server.result)
    in
    let before = (Client.memo_counters warm).Client.record_misses in
    check Alcotest.string name (decision (ctx ()) query forged) (decision warm query forged);
    check Alcotest.bool (name ^ ": forged record missed") true
      ((Client.memo_counters warm).Client.record_misses > before)
  in
  tamper "same id, other attrs" (fun r -> forged_record (Record.id r));
  tamper "same id, other payload" (fun r ->
      Record.make ~id:(Record.id r) ~attrs:(Db_ref.record_attrs r) ~payload:"evil" ());
  check Alcotest.string "honest reply after the forgeries" "accepted"
    (decision warm query resp)

(* A ctx's first verification uses no memo, and a verification reads
   only what earlier ones computed, so the first two both tick the
   paper's hash count (Fig. 7): the building blocks called outside
   [Client.with_memo], which never touch the memo, are the reference. *)
let test_memo_fresh_cost index () =
  let query, resp = honest index in
  let vo = resp.Server.vo in
  let hash_ops f =
    let before = Aqv_util.Metrics.snapshot () in
    f ();
    (Aqv_util.Metrics.diff (Aqv_util.Metrics.snapshot ()) before).Aqv_util.Metrics.hash_ops
  in
  let c = ctx () in
  let unmemoized =
    hash_ops (fun () ->
        let fmh_root =
          Client.window_root c ~n_leaves:vo.Vo.n_leaves ~window_lo:vo.Vo.window_lo
            ~left:vo.Vo.left ~result:resp.Server.result ~right:vo.Vo.right
            ~fmh_proof:vo.Vo.fmh_proof
        in
        Client.check_subdomain_proof c ~x:(Query.x query) ~fmh_root
          ~n_leaves:vo.Vo.n_leaves ~epoch:vo.Vo.epoch vo.Vo.subdomain
          ~signature:vo.Vo.signature)
  in
  check Alcotest.int "fresh ctx = no memo" unmemoized
    (hash_ops (fun () -> ignore (Client.verify c query resp)));
  check Alcotest.int "second verification = no memo" unmemoized
    (hash_ops (fun () -> ignore (Client.verify c query resp)));
  check Alcotest.bool "a warm ctx hashes less" true
    (hash_ops (fun () -> ignore (Client.verify c query resp)) < unmemoized)

(* Only accepted verifications add to the memo. A forged reply, here
   with an oversized proof entry and a same-id record carrying a large
   payload, is rejected and leaves nothing a later lookup could hit; nor
   does it evict the honest reply's entries. *)
let test_memo_rejected_leaves_nothing index () =
  let query, resp = honest index in
  let warm = primed query resp in
  let vo = resp.Server.vo in
  let bloated r =
    Record.make ~id:(Record.id r) ~attrs:(Db_ref.record_attrs r) ~payload:(String.make 4096 'x') ()
  in
  let forged =
    with_vo
      (with_result resp
         (List.mapi (fun i r -> if i = 0 then bloated r else r) resp.Server.result))
      { vo with Vo.fmh_proof = String.make 4096 '\xff' :: List.tl vo.Vo.fmh_proof }
  in
  check Alcotest.bool "forged reply rejected" true (decision (ctx ()) query forged <> "accepted");
  let misses f =
    let count () =
      let c = Client.memo_counters warm in
      (c.Client.record_misses, c.Client.node_misses)
    in
    let r0, n0 = count () in
    f ();
    let r1, n1 = count () in
    (r1 - r0, n1 - n0)
  in
  let verify_forged () =
    check Alcotest.string "warm = fresh decision" (decision (ctx ()) query forged)
      (decision warm query forged)
  in
  let first = misses verify_forged in
  check Alcotest.bool "the forgery missed" true (fst first > 0 && snd first > 0);
  check Alcotest.(pair int int) "a repeat finds nothing of it" first (misses verify_forged);
  check Alcotest.(pair int int) "the honest reply still hits throughout" (0, 0)
    (misses (fun () ->
         check Alcotest.string "honest reply" "accepted" (decision warm query resp)))

(* Soundness of the record key: equal records hash equally. [b] is
   either [a] re-decoded from a non-canonical wire form (unreduced
   fractions, padded big-endian bytes, any positive sign byte) or an
   unrelated record with the same id. *)
let noncanonical_copy ~scale ~pad ~sign_byte a =
  let module W = Aqv_util.Wire in
  let module Z = Aqv_bigint.Bigint in
  let w = W.writer () in
  let bytes z = String.make pad '\x00' ^ Z.to_bytes_be (Z.mul z (Z.of_int scale)) in
  W.varint w (Record.id a);
  W.varint w (Record.arity a);
  Array.iter
    (fun q ->
      (* a zero may arrive as "negative zero" *)
      W.u8 w (if Q.sign q < 0 || (Q.sign q = 0 && sign_byte = 255) then 1 else sign_byte);
      W.bytes w (bytes (Z.abs (Aqv_ref.Num_ref.q_num q)));
      W.bytes w (bytes (Aqv_ref.Num_ref.q_den q)))
    (Db_ref.record_attrs a);
  W.bytes w (Record.payload a);
  Record.decode (W.reader (W.contents w))

let arb_record_pair =
  let open QCheck.Gen in
  let attr = map2 (fun p q -> Q.of_ints p q) (int_range (-1000) 1000) (int_range 1 50) in
  let record id =
    map2
      (fun attrs payload -> Record.make ~id ~attrs:(Array.of_list attrs) ~payload ())
      (list_size (int_range 1 3) attr)
      (oneofl [ ""; "p"; "payload" ])
  in
  let gen =
    int_bound 20 >>= fun id ->
    record id >>= fun a ->
    bool >>= fun derived ->
    if derived then
      map3
        (fun scale pad sign_byte -> (a, noncanonical_copy ~scale ~pad ~sign_byte a, true))
        (int_range 1 7) (int_bound 9)
        (oneofl [ 0; 2; 255 ])
    else map (fun b -> (a, b, false)) (record id)
  in
  QCheck.make
    ~print:(fun (a, b, _) -> Format.asprintf "%a / %a" Record.pp a Record.pp b)
    gen

let prop_equal_records_hash_equally (a, b, derived) =
  ((not derived) || Record.equal a b)
  && ((not (Record.equal a b)) || String.equal (Record.digest a) (Record.digest b))

(* Client threads share one ctx (as [aqv_net workload]'s do): every
   decision, under any interleaving, must be the one a fresh ctx makes
   for that reply alone. *)
let test_memo_threads () =
  let t = Lazy.force table in
  let rng = Prng.create 96L in
  let replies =
    List.concat_map
      (fun index ->
        let query, resp, mutants = decoded_mutants index in
        let honest_replies =
          List.init 6 (fun i ->
              let x = Workload.weight_point t rng in
              let q =
                if i mod 2 = 0 then Query.top_k ~x ~k:(2 + i)
                else
                  let l, u = Workload.range_for_result_size t ~x ~size:(3 + i) in
                  Query.range ~x ~l ~u
              in
              (q, Server.answer index q))
        in
        ((query, resp) :: honest_replies)
        @ List.filteri (fun i _ -> i mod 4 = 0) (List.map (fun m -> (query, m)) mutants))
      [ Lazy.force index_one; Lazy.force index_multi ]
    |> Array.of_list
  in
  let n = Array.length replies in
  let expected = Array.map (fun (q, r) -> decision (ctx ()) q r) replies in
  check Alcotest.bool "honest and forged replies" true
    (Array.mem "accepted" expected && Array.exists (( <> ) "accepted") expected);
  let shared = ctx () in
  let threads = 4 and rounds = 3 in
  let got = Array.init threads (fun _ -> Array.make (rounds * n) "") in
  let worker k () =
    for i = 0 to (rounds * n) - 1 do
      (* each thread walks the replies from its own offset *)
      let j = (i + (k * 7)) mod n in
      let q, r = replies.(j) in
      got.(k).(i) <- decision shared q r;
      Thread.yield ()
    done
  in
  List.iter Thread.join (List.init threads (fun k -> Thread.create (worker k) ()));
  Array.iteri
    (fun k decisions ->
      Array.iteri
        (fun i d ->
          let j = (i + (k * 7)) mod n in
          check Alcotest.string (Printf.sprintf "thread %d reply %d" k j) expected.(j) d)
        decisions)
    got;
  check Alcotest.bool "the shared memo was hit" true
    ((Client.memo_counters shared).Client.node_hits > 0)

(* The memo law in any order: a sequence of honest and mutated replies,
   verified in turn on one ctx, is decided reply by reply as a fresh ctx
   decides it. QCHECK_LONG=1 runs twenty times the count. *)
let memo_pool =
  lazy
    (let t = Lazy.force table and rng = Prng.create 97L in
     let pool =
       List.concat_map
         (fun index ->
           let query, resp, mutants = decoded_mutants index in
           let honest_replies =
             List.init 8 (fun i ->
                 let x = Workload.weight_point t rng in
                 let l, u = Workload.range_for_result_size t ~x ~size:(2 + i) in
                 let q = Query.range ~x ~l ~u in
                 (q, Server.answer index q))
           in
           ((query, resp) :: honest_replies) @ List.map (fun m -> (query, m)) mutants)
         [ Lazy.force index_one; Lazy.force index_multi ]
       |> Array.of_list
     in
     (pool, Array.map (fun (q, r) -> decision (ctx ()) q r) pool))

let memo_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~long_factor:20 ~name:"warm = fresh in any order"
       QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 1_000_000))
       (fun picks ->
         let pool, expected = Lazy.force memo_pool in
         let c = ctx () in
         List.for_all
           (fun p ->
             let i = p mod Array.length pool in
             let q, r = pool.(i) in
             String.equal expected.(i) (decision c q r))
           picks))

(* The memo has a fixed number of slots per array, a colliding entry
   replacing the one before. A stream with more distinct entries than
   slots: tables of parallel lines (one subdomain, so a build is a sort
   and one signature), the ids of table [k] being [k * memo_slots + i],
   so every table's records land in the slots of every other table's.
   Each table gives a whole-list reply, a half-list range reply and
   mutants of both: a dropped record, a same-id record, a flipped and a
   short proof entry. *)
let memo_slots = 1 lsl 16

let overflow_stream =
  lazy
    (let t = Lazy.force table and kp = Lazy.force keypair in
     let n = 1600 in
     List.concat_map
       (fun k ->
         let records =
           List.init n (fun i ->
               Record.make ~id:((k * memo_slots) + i)
                 ~attrs:[| Q.of_int 7; Q.of_int ((k * 10_000) + (3 * i)) |]
                 ())
         in
         let tk = Table.make ~records ~template:(Table.template t) ~domain:(Table.domain t) in
         let index = Ifmh.build ~scheme:Ifmh.One_signature tk kp in
         let x = Workload.weight_point tk (Prng.create (Int64.of_int (500 + k))) in
         let whole = Query.top_k ~x ~k:n in
         let half =
           let l, u = Workload.range_for_result_size tk ~x ~size:(n / 2) in
           Query.range ~x ~l ~u
         in
         let rw = Server.answer index whole and rh = Server.answer index half in
         let proof = rh.Server.vo.Vo.fmh_proof in
         let with_proof p = with_vo rh { rh.Server.vo with Vo.fmh_proof = p } in
         let flip s = String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s in
         [
           (whole, rw);
           (half, rh);
           (whole, with_result rw (drop_nth 700 rw.Server.result));
           ( whole,
             with_result rw
               (List.mapi
                  (fun i r ->
                    if i = 300 then
                      Record.make ~id:(Record.id r) ~attrs:(Db_ref.record_attrs r) ~payload:"x" ()
                    else r)
                  rw.Server.result) );
           (half, with_proof (flip (List.hd proof) :: List.tl proof));
           (half, with_proof (String.sub (List.hd proof) 0 7 :: List.tl proof));
         ])
       (List.init 32 Fun.id)
     |> Array.of_list)

let test_memo_overflow () =
  let stream = Lazy.force overflow_stream in
  let expected = Array.map (fun (q, r) -> decision (ctx ()) q r) stream in
  check Alcotest.bool "honest and forged replies" true
    (Array.mem "accepted" expected && Array.exists (( <> ) "accepted") expected);
  let shared = ctx () in
  for pass = 1 to 2 do
    Array.iteri
      (fun i (q, r) ->
        check Alcotest.string
          (Printf.sprintf "pass %d reply %d" pass i)
          expected.(i) (decision shared q r))
      stream
  done;
  let c = Client.memo_counters shared in
  check Alcotest.bool "more node inputs than slots" true (c.Client.node_misses > memo_slots);
  check Alcotest.bool "the memo still hit" true (c.Client.node_hits > 0 && c.Client.record_hits > 0)

(* The memo takes no lock: two domains verify the overflowing stream on
   one ctx, each from its own offset, and every decision is a fresh
   ctx's. *)
let test_memo_domains () =
  let stream = Lazy.force overflow_stream in
  let n = Array.length stream in
  let expected = Array.map (fun (q, r) -> decision (ctx ()) q r) stream in
  let shared = ctx () in
  let verifier k () =
    Array.init n (fun i ->
        let j = (i + (k * n / 2)) mod n in
        let q, r = stream.(j) in
        (j, decision shared q r))
  in
  let domains = List.init 2 (fun k -> Domain.spawn (verifier k)) in
  List.iteri
    (fun k d ->
      Array.iter
        (fun (j, got) ->
          check Alcotest.string (Printf.sprintf "domain %d reply %d" k j) expected.(j) got)
        (Domain.join d))
    domains;
  check Alcotest.bool "the shared memo was hit" true
    ((Client.memo_counters shared).Client.node_hits > 0)

(* An empty slot matches nothing, and an input too short to index a
   slot skips the memo: proof entries of 0 to 31 bytes, on a warm ctx,
   are decided as a fresh ctx decides them and miss every time; records
   whose ids fall in empty slots, or in a filled slot under another id,
   miss and get their own digest. *)
let test_memo_empty_and_short index () =
  let query, resp = honest index in
  let warm = primed query resp in
  let vo = resp.Server.vo in
  let node_misses () = (Client.memo_counters warm).Client.node_misses in
  List.iter
    (fun len ->
      let forged =
        with_vo resp
          { vo with Vo.fmh_proof = String.sub (List.hd vo.Vo.fmh_proof) 0 len :: List.tl vo.Vo.fmh_proof }
      in
      for _ = 1 to 2 do
        let before = node_misses () in
        check Alcotest.string
          (Printf.sprintf "%d-byte proof entry: warm = fresh" len)
          (decision (ctx ()) query forged) (decision warm query forged);
        check Alcotest.bool (Printf.sprintf "%d-byte proof entry missed" len) true
          (node_misses () > before)
      done)
    (List.init 32 Fun.id);
  let r0 = List.hd resp.Server.result in
  List.iter
    (fun (name, r) ->
      let counts () =
        let c = Client.memo_counters warm in
        (c.Client.record_hits, c.Client.record_misses)
      in
      let h0, m0 = counts () in
      (* an [Error] result publishes nothing, so each probe sees the
         warm memo as it was *)
      let digest =
        match Client.with_memo warm (fun c -> Error (Client.boundary_digest c (Vo.Boundary_record r))) with
        | Error d -> d
        | Ok () -> Alcotest.fail "unreachable"
      in
      check Alcotest.string (name ^ ": own digest") (Record.digest r) digest;
      check Alcotest.(pair int int) (name ^ ": one miss, no hit") (h0, m0 + 1) (counts ()))
    [
      ("empty record, id 0", Record.make ~id:0 ~attrs:[||] ());
      ("empty record, empty slot", Record.make ~id:(memo_slots - 1) ~attrs:[||] ());
      ("max_int id", Record.make ~id:max_int ~attrs:[||] ());
      ( "a cached record's twin, one slot over",
        Record.make ~id:(Record.id r0 + memo_slots) ~attrs:(Db_ref.record_attrs r0)
          ~payload:(Record.payload r0) () );
    ]

(* Node entries live in pairs of slots, [i] and [i lxor 1], where [i]
   mixes bytes 0-1 of the left child with bytes 2-3 of the right. Two
   nodes of one window built to share [i] both stay: verifying the same
   window again on a warm ctx hits every node. The window is the first
   record of a two-record list: its leaves are the min sentinel, [r1]
   and [r2], and its one proof entry, the max sentinel's place, is
   chosen to put the node over [r2] and it at the slot of the node over
   the min sentinel and [r1], and the root node outside that pair. *)
let test_memo_two_way_nodes () =
  let slot l r = String.get_uint16_le l 0 lxor String.get_uint16_le r 2 in
  let r1 = Record.make ~id:1 ~attrs:[| Q.of_int 1; Q.of_int 2 |] ()
  and r2 = Record.make ~id:2 ~attrs:[| Q.of_int 3; Q.of_int 4 |] () in
  let l0 = Record.min_sentinel_digest and l1 = Record.digest r1 and l2 = Record.digest r2 in
  let shared = slot l0 l1 in
  let entry k =
    let b = Bytes.make 32 '\x00' in
    Bytes.set_uint16_le b 2 (shared lxor String.get_uint16_le l2 0);
    Bytes.set_uint16_le b 4 k;
    Bytes.to_string b
  in
  let node = Aqv_merkle.Mht.node_hash in
  let root_of p = node (node l0 l1) (node l2 p) in
  (* the root node in neither way of the shared pair *)
  let p =
    let rec find k =
      let p = entry k in
      if slot (node l0 l1) (node l2 p) lor 1 = shared lor 1 then find (k + 1) else p
    in
    find 0
  in
  check Alcotest.int "two nodes built to share a slot" (slot l0 l1) (slot l2 p);
  let warm = ctx () in
  let verify_window () =
    Client.with_memo warm (fun c ->
        Ok
          (Client.window_root c ~n_leaves:4 ~window_lo:1 ~left:Vo.Min_sentinel ~result:[ r1 ]
             ~right:(Vo.Boundary_record r2) ~fmh_proof:[ p ]))
  in
  let counts () =
    let c = Client.memo_counters warm in
    (c.Client.node_hits, c.Client.node_misses)
  in
  (* memo-free, then filling, then warm *)
  for pass = 1 to 3 do
    let hits, misses = counts () in
    (match verify_window () with
    | Ok root -> check Alcotest.string (Printf.sprintf "pass %d root" pass) (root_of p) root
    | Error () -> Alcotest.fail "unreachable");
    if pass = 3 then
      check Alcotest.(pair int int) "every node hits on the warm pass" (hits + 3, misses) (counts ())
  done

(* The signature table holds only (digest, signature) pairs that
   verified, keyed by the digest the client recomputes from the reply. A
   reply whose signature has one byte flipped is rejected as
   [Bad_signature] every time, and leaves the table as it was: the flip
   misses again on a repeat (it was not stored), and the honest reply
   still hits (it was not evicted). *)
let flip_signature_byte resp =
  let vo = resp.Server.vo in
  let s = vo.Vo.signature in
  let i = String.length s / 2 in
  with_vo resp
    { vo with Vo.signature = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s }

let signature_counts ctx =
  let c = Client.memo_counters ctx in
  (c.Client.signature_hits, c.Client.signature_misses)

let test_signature_memo_rejected index () =
  let query, resp = honest index in
  let warm = primed query resp in
  let forged = flip_signature_byte resp in
  let bad = Client.rejection_to_string Client.Bad_signature in
  for _ = 1 to 2 do
    let hits, misses = signature_counts warm in
    check Alcotest.string "flipped signature byte" bad (decision warm query forged);
    check Alcotest.(pair int int) "checked afresh, not stored" (hits, misses + 1)
      (signature_counts warm)
  done;
  let hits, misses = signature_counts warm in
  check Alcotest.string "honest reply" "accepted" (decision warm query resp);
  check Alcotest.(pair int int) "the honest pair still hits" (hits + 1, misses)
    (signature_counts warm)

(* A warm ctx that holds an authentic pair still rejects a reply that
   reuses it: asked at a point outside the proven subdomain, the side
   checks fail before the signature is looked up; with one signature
   byte flipped, the pair differs and is checked afresh. Each decision
   is a fresh ctx's. *)
let test_signature_memo_reuse index () =
  let query, resp = honest index in
  let warm = primed query resp in
  let t = Lazy.force table in
  let l, u = match query with Query.Range { l; u; _ } -> (l, u) | _ -> assert false in
  let rng = Prng.create 98L in
  let wrong = Client.rejection_to_string Client.Wrong_subdomain in
  let rec outside tries =
    if tries = 0 then Alcotest.fail "no point outside the subdomain"
    else
      let q = Query.range ~x:(Workload.weight_point t rng) ~l ~u in
      if decision (ctx ()) q resp = wrong then q else outside (tries - 1)
  in
  let elsewhere = outside 1000 in
  let before = signature_counts warm in
  check Alcotest.string "x outside the subdomain" wrong (decision warm elsewhere resp);
  check Alcotest.(pair int int) "rejected before the signature" before (signature_counts warm);
  let forged = flip_signature_byte resp in
  check Alcotest.string "flipped signature byte: warm = fresh"
    (decision (ctx ()) query forged) (decision warm query forged);
  check Alcotest.string "flipped signature byte" (Client.rejection_to_string Client.Bad_signature)
    (decision warm query forged);
  check Alcotest.string "honest reply" "accepted" (decision warm query resp)

(* A record id whose 9th varint byte sets bit 62 used to decode as a
   negative int; re-encoding it for the digest then raised
   [Invalid_argument] out of [Client.verify]. The forged reply must end
   in a decode [Failure] or a rejection, never an escaping exception. *)
let test_forged_varint_id index () =
  let query, resp = honest index in
  let original = encoded Protocol.encode_reply (Protocol.Answer resp) in
  let r = List.nth resp.Server.result 1 in
  let body = encoded Record.encode r in
  let id_bytes = encoded Aqv_util.Wire.varint (Record.id r) in
  let at =
    let n = String.length body in
    let rec find i =
      if i + n > String.length original then Alcotest.fail "record bytes not found"
      else if String.sub original i n = body then i
      else find (i + 1)
    in
    find 0
  in
  let k = String.length id_bytes in
  let forged =
    String.sub original 0 at ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x40"
    ^ String.sub original (at + k) (String.length original - at - k)
  in
  let outcome =
    match Protocol.decode_reply (Aqv_util.Wire.reader forged) with
    | exception Failure _ -> "decode failure"
    | Protocol.Answer resp' -> decision (ctx ()) query resp'
    | _ -> "other reply"
  in
  check Alcotest.bool ("forged id refused: " ^ outcome) true
    (outcome <> "accepted" && outcome <> "other reply")

(* ------------------- reference verifier law ------------------------ *)

(* [Client.verify] and [Client.verify_rank] decide every reply as the
   reference verifier (test/ref/verify_ref.ml) does: they accept exactly
   when it does, and when both reject, the client names the reference's
   first failed check. The replies: honest answers, answers to another
   query at the same point or another, every tampering above (with
   unscorable and re-payloaded proof records), random byte mutations
   that still decode, relabelled epochs and answers of an older epoch. Each is decided by
   a fresh ctx and by one warm ctx that sees the whole sequence, under a
   minimum epoch drawn per reply. Tables: 1-D, 2-D and tie-heavy 1-D,
   each under both schemes, at epoch 1 and, after one update, epoch 2. *)
module Verify_ref = Aqv_ref.Verify_ref

type law_index = { law_name : string; law_table : Table.t; versions : Ifmh.t array }

let law_indexes =
  lazy
    (let kp = Lazy.force keypair in
     let tables =
       [
         ("1-D", Workload.lines_1d ~n:10 (Prng.create 0x1DL));
         ("2-D", Workload.scored ~n:6 ~dims:2 (Prng.create 0x2DL));
         ("tie-heavy", Workload.lines_1d ~slope_range:3 ~intercept_range:3 ~n:10 (Prng.create 0x71L));
       ]
     in
     List.concat_map
       (fun (name, t) ->
         List.map
           (fun scheme ->
             let v1 = Ifmh.build ~scheme ~epoch:1 t kp in
             let moved = Record.make ~id:0 ~attrs:[| Q.of_int 7; Q.of_int 11 |] () in
             let v2 = Ifmh.apply kp [ Update.Modify moved ] v1 in
             {
               law_name = name ^ " " ^ Ifmh.scheme_name scheme;
               law_table = t;
               versions = [| v1; v2 |];
             })
           [ Ifmh.One_signature; Ifmh.Multi_signature ])
       tables
     |> Array.of_list)

type law_ask = Verify of Query.t | Rank of Aqv_num.Rational.t array * int

(* 1-3 bit flips or a truncation of [s], as [iter_mutants] makes them *)
let mutant rng s =
  let b = Bytes.of_string s in
  for _ = 0 to Prng.int rng 3 do
    let i = Prng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))
  done;
  if Prng.int rng 4 = 0 then Bytes.sub_string b 0 (Prng.int rng (Bytes.length b))
  else Bytes.to_string b

let law_case li rng ~points =
  let t = li.law_table in
  let n = Table.size t in
  let x = points.(Prng.int rng (Array.length points)) in
  let scores = Workload.scores_at t x in
  let score_at i = snd scores.(i mod n) in
  let ask ?(x = x) () =
    match Prng.int rng 4 with
    | 0 -> Verify (Query.top_k ~x ~k:(1 + Prng.int rng (n + 1)))
    | 1 ->
      let a = score_at (Prng.int rng n) and b = score_at (Prng.int rng n) in
      let l, u = if Q.compare a b <= 0 then (a, b) else (b, a) in
      (* bounds on a score or between two: both ties and strict ones *)
      let l = if Prng.bool rng then l else Q.sub l (Q.of_ints 1 7) in
      Verify (Query.range ~x ~l ~u:(if Prng.bool rng then u else Q.add u (Q.of_ints 1 5)))
    | 2 -> Verify (Query.knn ~x ~k:(1 + Prng.int rng n) ~y:(Q.add (score_at (Prng.int rng n)) (Q.of_ints 1 3)))
    | _ -> Rank (x, Record.id (Table.record t (Prng.int rng n)))
  in
  let answer index = function
    | Verify q -> Some (Server.answer index q)
    | Rank (x, record_id) -> Server.rank index ~x ~record_id
  in
  let version = li.versions.(Prng.int rng 2) in
  let asked = ask () in
  let honest = answer version asked in
  let reply =
    match (honest, Prng.int rng 10) with
    | None, _ -> None
    | Some r, (0 | 1 | 2 | 3) -> Some r
    | Some _, 4 ->
      (* an answer to another question, at the same point or another *)
      if Prng.bool rng then answer version (ask ())
      else answer version (ask ~x:(Workload.weight_point t rng) ())
    | Some r, (5 | 6) ->
      (* against_index's tamperings; a record too short to score, in the
         window or in the subdomain proof; and a proof record with the
         same attributes and another payload, which passes the side test
         and changes only the signing digest *)
      let short r = Record.make ~id:(Record.id r) ~attrs:[| Record.attr r 0 |] () in
      let evil r = Record.make ~id:(Record.id r) ~attrs:(Db_ref.record_attrs r) ~payload:"evil" () in
      let proof_record f =
        let vo = r.Server.vo in
        match vo.Vo.subdomain with
        | Vo.Multi_sig_constraints ((rp, rq, side) :: rest) ->
          [ with_vo r { vo with Vo.subdomain = Vo.Multi_sig_constraints ((rp, f rq, side) :: rest) } ]
        | Vo.One_sig_path (st :: rest) ->
          [ with_vo r { vo with Vo.subdomain = Vo.One_sig_path ({ st with Vo.rq = f st.Vo.rq } :: rest) } ]
        | _ -> []
      in
      let all =
        List.map (fun (_, _, tampered) -> tampered) (tampers r)
        @ (match r.Server.result with
          | a :: rest -> [ with_result r (short a :: rest) ]
          | [] -> [])
        @ proof_record short @ proof_record evil
      in
      Some (List.nth all (Prng.int rng (List.length all)))
    | Some r, 7 ->
      let vo = r.Server.vo in
      Some (with_vo r { vo with Vo.epoch = vo.Vo.epoch + 1 - (2 * Prng.int rng 2) })
    | Some r, 8 ->
      let bytes = encoded Server.encode_response r in
      let rec decodable tries =
        if tries = 0 then Some r
        else
          match Server.decode_response (Aqv_util.Wire.reader (mutant rng bytes)) with
          | exception (Failure _ | Invalid_argument _) -> decodable (tries - 1)
          | m -> Some m
      in
      decodable 20
    | Some _, _ -> answer li.versions.(0) asked
  in
  Option.map (fun r -> (asked, r)) reply

let ref_decision checks =
  match Verify_ref.first_failure checks with
  | None -> "accepted"
  | Some c -> Client.rejection_to_string c.Verify_ref.reject

let client_decision ctx asked resp =
  match asked with
  | Verify q -> decision ctx q resp
  | Rank (x, record_id) -> (
    match Client.verify_rank ctx ~x ~record_id resp with
    | Ok _ -> "accepted"
    | Error r -> Client.rejection_to_string r)

let reference_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~long_factor:20 ~name:"client = reference, fresh and warm"
       QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
       (fun (pick, seed) ->
         let indexes = Lazy.force law_indexes in
         let li = indexes.(pick mod Array.length indexes) in
         let t = li.law_table and kp = Lazy.force keypair in
         let rng = Prng.create (Int64.of_int seed) in
         let make () =
           Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
             ~verify_signature:kp.Signer.verify
         in
         let warm = make () in
         (* a few points, so that the warm ctx meets a subdomain again *)
         let points = Array.init 3 (fun _ -> Workload.weight_point t rng) in
         List.for_all
           (fun _ ->
             match law_case li rng ~points with
             | None -> true
             | Some (asked, resp) ->
               let min_epoch = [| 0; 1; 2 |].(Prng.int rng 3) in
               let reference =
                 Verify_ref.make ~template:(Table.template t) ~domain:(Table.domain t)
                   ~verify_signature:kp.Signer.verify ~min_epoch
               in
               let expected =
                 ref_decision
                   (match asked with
                   | Verify q -> Verify_ref.verify reference q resp
                   | Rank (x, record_id) -> Verify_ref.verify_rank reference ~x ~record_id resp)
               in
               let fresh = client_decision (Client.with_min_epoch (make ()) min_epoch) asked resp
               and warm = client_decision (Client.with_min_epoch warm min_epoch) asked resp in
               String.equal expected fresh && String.equal expected warm
               || QCheck.Test.fail_reportf "%s: reference %S, fresh ctx %S, warm ctx %S"
                    li.law_name expected fresh warm)
           (List.init 40 Fun.id)))

(* [Count.verify] decides every count reply as [Verify_ref.count] does,
   and certifies the count the reference certifies. The replies: honest
   answers; the answer for another range at the same point; an anchor's
   boundary swapped with another anchor's or replaced by a sentinel;
   one anchor taken from the answer for another range; one path cut
   short; an inner anchor exchanged with the outer one next to it;
   bounds asked in the wrong order; random byte mutations that still
   decode. Each is decided by a fresh ctx and by one warm ctx that sees
   the whole sequence, under a minimum epoch drawn per reply, on the
   tables and versions of the law above. *)
let count_anchors (r : Count.response) =
  match r.Count.inner with
  | None -> [ r.Count.louter; r.Count.router ]
  | Some (first, last) -> [ r.Count.louter; r.Count.router; first; last ]

let with_anchors (r : Count.response) = function
  | [ louter; router ] -> { r with Count.louter; router; inner = None }
  | [ louter; router; first; last ] -> { r with Count.louter; router; inner = Some (first, last) }
  | _ -> invalid_arg "with_anchors"

let count_case li rng ~points =
  let t = li.law_table in
  let n = Table.size t in
  let x = points.(Prng.int rng (Array.length points)) in
  let scores = Workload.scores_at t x in
  let score_at () = snd scores.(Prng.int rng n) in
  (* bounds on a score or between two: both ties and strict ones *)
  let bounds () =
    let a = score_at () and b = score_at () in
    let l, u = if Q.compare a b <= 0 then (a, b) else (b, a) in
    ( (if Prng.bool rng then l else Q.sub l (Q.of_ints 1 7)),
      if Prng.bool rng then u else Q.add u (Q.of_ints 1 5) )
  in
  let version = li.versions.(Prng.int rng 2) in
  let l, u = bounds () in
  let honest = Count.answer version ~x ~l ~u in
  let other =
    let l', u' = bounds () in
    Count.answer version ~x ~l:l' ~u:u'
  in
  let anchors = Array.of_list (count_anchors honest) in
  let pick () = Prng.int rng (Array.length anchors) in
  let rebuilt () = with_anchors honest (Array.to_list anchors) in
  let reply =
    match Prng.int rng 9 with
    | 0 | 1 -> honest
    | 2 -> other
    | 3 ->
      let i = pick () in
      (match Prng.int rng 3 with
      | 0 -> anchors.(i) <- { (anchors.(i)) with Count.boundary = Vo.Min_sentinel }
      | 1 -> anchors.(i) <- { (anchors.(i)) with Count.boundary = Vo.Max_sentinel }
      | _ ->
        let j = pick () in
        let bi = anchors.(i).Count.boundary in
        anchors.(i) <- { (anchors.(i)) with Count.boundary = anchors.(j).Count.boundary };
        anchors.(j) <- { (anchors.(j)) with Count.boundary = bi });
      rebuilt ()
    | 4 ->
      let theirs = Array.of_list (count_anchors other) in
      let i = pick () in
      if i < Array.length theirs then anchors.(i) <- theirs.(i);
      rebuilt ()
    | 5 ->
      let i = pick () in
      (match anchors.(i).Count.path with
      | [] -> ()
      | _ :: rest as path ->
        let path = if Prng.bool rng then rest else List.filteri (fun k _ -> k < List.length path - 1) path in
        anchors.(i) <- { (anchors.(i)) with Count.path });
      rebuilt ()
    | 6 ->
      if Array.length anchors = 4 then begin
        let k = Prng.int rng 2 in
        let outer = anchors.(k) in
        anchors.(k) <- anchors.(k + 2);
        anchors.(k + 2) <- outer
      end;
      rebuilt ()
    | 7 ->
      let bytes = encoded Count.encode honest in
      let rec decodable tries =
        if tries = 0 then honest
        else
          match Count.decode (Aqv_util.Wire.reader (mutant rng bytes)) with
          | exception (Failure _ | Invalid_argument _) -> decodable (tries - 1)
          | m -> m
      in
      decodable 20
    | _ -> honest
  in
  (* the last case asks with the bounds in the wrong order *)
  let l, u = if Prng.int rng 9 = 0 then (u, l) else (l, u) in
  (x, l, u, reply)

let count_decision ctx ~x ~l ~u resp =
  match Count.verify ctx ~x ~l ~u resp with
  | Ok c -> Printf.sprintf "accepted %d" c
  | Error r -> Client.rejection_to_string r

let ref_count_decision (checks, certified) =
  match (Verify_ref.first_failure checks, certified) with
  | Some c, _ -> Client.rejection_to_string c.Verify_ref.reject
  | None, Some c -> Printf.sprintf "accepted %d" c
  | None, None -> "accepted, no count"

let count_reference_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~long_factor:20 ~name:"count = reference, fresh and warm"
       QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
       (fun (pick, seed) ->
         let indexes = Lazy.force law_indexes in
         let li = indexes.(pick mod Array.length indexes) in
         let t = li.law_table and kp = Lazy.force keypair in
         let rng = Prng.create (Int64.of_int seed) in
         let make () =
           Client.make_ctx ~template:(Table.template t) ~domain:(Table.domain t)
             ~verify_signature:kp.Signer.verify
         in
         let warm = make () in
         let points = Array.init 3 (fun _ -> Workload.weight_point t rng) in
         List.for_all
           (fun _ ->
             let x, l, u, resp = count_case li rng ~points in
             let min_epoch = [| 0; 1; 2 |].(Prng.int rng 3) in
             let reference =
               Verify_ref.make ~template:(Table.template t) ~domain:(Table.domain t)
                 ~verify_signature:kp.Signer.verify ~min_epoch
             in
             let expected = ref_count_decision (Verify_ref.count reference ~x ~l ~u resp) in
             let fresh = count_decision (Client.with_min_epoch (make ()) min_epoch) ~x ~l ~u resp
             and warm = count_decision (Client.with_min_epoch warm min_epoch) ~x ~l ~u resp in
             String.equal expected fresh && String.equal expected warm
             || QCheck.Test.fail_reportf "%s: reference %S, fresh ctx %S, warm ctx %S"
                  li.law_name expected fresh warm)
           (List.init 40 Fun.id)))

let () =
  Alcotest.run "aqv_attacks"
    [
      ( "ifmh-one-signature",
        [
          Alcotest.test_case "response tampering" `Quick
            (against_index "one-sig" (Lazy.force index_one));
          Alcotest.test_case "top-k count" `Quick (test_topk_count (Lazy.force index_one));
          Alcotest.test_case "knn shift" `Quick (test_knn_shift (Lazy.force index_one));
          Alcotest.test_case "unscorable record or point" `Quick
            (test_unscorable (Lazy.force index_one));
        ] );
      ( "ifmh-multi-signature",
        [
          Alcotest.test_case "response tampering" `Quick
            (against_index "multi-sig" (Lazy.force index_multi));
          Alcotest.test_case "top-k count" `Quick (test_topk_count (Lazy.force index_multi));
          Alcotest.test_case "knn shift" `Quick (test_knn_shift (Lazy.force index_multi));
          Alcotest.test_case "unscorable record or point" `Quick
            (test_unscorable (Lazy.force index_multi));
        ] );
      ( "keys-and-domains",
        [
          Alcotest.test_case "cross key" `Quick test_cross_key;
          Alcotest.test_case "wrong client domain" `Quick test_wrong_domain_client;
        ] );
      ( "updates",
        [
          Alcotest.test_case "one-sig stale replay" `Quick
            (test_update_replay Ifmh.One_signature);
          Alcotest.test_case "multi-sig stale replay" `Quick
            (test_update_replay Ifmh.Multi_signature);
        ] );
      ( "mesh",
        [
          Alcotest.test_case "response tampering" `Quick test_mesh_attacks;
          Alcotest.test_case "span tamper" `Quick test_mesh_span_tamper;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "one-sig byte mutations" `Quick
            (test_fuzz_mutations (Lazy.force index_one));
          Alcotest.test_case "multi-sig byte mutations" `Quick
            (test_fuzz_mutations (Lazy.force index_multi));
          Alcotest.test_case "snapshot decoder mutations" `Quick test_fuzz_snapshot;
          Alcotest.test_case "bundle decoder mutations" `Quick test_fuzz_bundle;
          Alcotest.test_case "request decoder mutations" `Quick test_fuzz_requests;
          Alcotest.test_case "reply decoder mutations" `Quick test_fuzz_replies;
          Alcotest.test_case "count decoder mutations" `Quick test_fuzz_count;
          Alcotest.test_case "delta decoder mutations" `Quick test_fuzz_delta;
          Alcotest.test_case "one-sig forged varint id" `Quick
            (test_forged_varint_id (Lazy.force index_one));
          Alcotest.test_case "multi-sig forged varint id" `Quick
            (test_forged_varint_id (Lazy.force index_multi));
        ] );
      ( "store",
        [
          Alcotest.test_case "bit-flipped snapshot" `Quick
            test_store_snapshot_flip;
          Alcotest.test_case "spliced foreign frame" `Quick
            test_store_spliced_frame;
          Alcotest.test_case "epoch-gap frame" `Quick test_store_epoch_gap;
        ] );
      ( "replication",
        [
          Alcotest.test_case "stale replica" `Quick test_replication_stale_replica;
          Alcotest.test_case "tampered delta" `Quick
            test_replication_tampered_delta;
        ] );
      ( "digest memo",
        [
          Alcotest.test_case "one-sig warm = fresh" `Quick
            (test_memo_warm_mutants (Lazy.force index_one));
          Alcotest.test_case "multi-sig warm = fresh" `Quick
            (test_memo_warm_mutants (Lazy.force index_multi));
          Alcotest.test_case "one-sig mutants first" `Quick
            (test_memo_mutants_first (Lazy.force index_one));
          Alcotest.test_case "multi-sig mutants first" `Quick
            (test_memo_mutants_first (Lazy.force index_multi));
          Alcotest.test_case "one-sig fresh hash count" `Quick
            (test_memo_fresh_cost (Lazy.force index_one));
          Alcotest.test_case "multi-sig fresh hash count" `Quick
            (test_memo_fresh_cost (Lazy.force index_multi));
          Alcotest.test_case "same id, other bytes" `Quick
            (test_memo_same_id_misses (Lazy.force index_multi));
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:500 ~name:"equal records, equal hash"
               arb_record_pair prop_equal_records_hash_equally);
          Alcotest.test_case "threads share one ctx" `Quick test_memo_threads;
          Alcotest.test_case "one-sig forgery kept out" `Quick
            (test_memo_rejected_leaves_nothing (Lazy.force index_one));
          Alcotest.test_case "multi-sig forgery kept out" `Quick
            (test_memo_rejected_leaves_nothing (Lazy.force index_multi));
          Alcotest.test_case "more entries than slots" `Quick test_memo_overflow;
          Alcotest.test_case "two domains share one ctx" `Quick test_memo_domains;
          Alcotest.test_case "one-sig short inputs" `Quick
            (test_memo_empty_and_short (Lazy.force index_one));
          Alcotest.test_case "multi-sig short inputs" `Quick
            (test_memo_empty_and_short (Lazy.force index_multi));
          memo_law;
          Alcotest.test_case "two nodes sharing a slot both stay" `Quick test_memo_two_way_nodes;
          Alcotest.test_case "one-sig bad signature not stored" `Quick
            (test_signature_memo_rejected (Lazy.force index_one));
          Alcotest.test_case "multi-sig bad signature not stored" `Quick
            (test_signature_memo_rejected (Lazy.force index_multi));
          Alcotest.test_case "one-sig held pair reused" `Quick
            (test_signature_memo_reuse (Lazy.force index_one));
          Alcotest.test_case "multi-sig held pair reused" `Quick
            (test_signature_memo_reuse (Lazy.force index_multi));
        ] );
      ("reference verifier", [ reference_law; count_reference_law ]);
    ]
