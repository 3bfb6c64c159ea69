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
open Aqv

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

let against_index name index () =
  ignore name;
  let query, resp = honest index in

  (* sanity: the unmodified response is accepted *)
  (match Client.verify (ctx ()) query resp with
  | Ok () -> ()
  | Error r -> Alcotest.failf "honest response rejected: %s" (Client.rejection_to_string r));

  (* Case 1 of §4.1: drop a middle record *)
  expect_reject "drop middle record" query (with_result resp (drop_nth 2 resp.Server.result));

  (* drop the first / last record without fixing the VO *)
  expect_reject "drop first record" query (with_result resp (drop_nth 0 resp.Server.result));
  expect_reject "drop last record" query
    (with_result resp (drop_nth (List.length resp.Server.result - 1) resp.Server.result));

  (* substitute a record body (same id, different attributes) *)
  expect_reject "substitute record" query
    (with_result resp
       (List.mapi (fun i r -> if i = 2 then forged_record (Record.id r) else r) resp.Server.result));

  (* tamper with a payload only *)
  expect_reject "tamper payload" query
    (with_result resp
       (List.mapi
          (fun i r ->
            if i = 1 then Record.make ~id:(Record.id r) ~attrs:(Record.attrs r) ~payload:"evil" ()
            else r)
          resp.Server.result));

  (* reorder two records *)
  (let swapped =
     match resp.Server.result with
     | a :: b :: rest -> b :: a :: rest
     | _ -> assert false
   in
   expect_reject "reorder records" query (with_result resp swapped));

  (* duplicate a record (and keep the count plausible by dropping another) *)
  (let dup =
     match resp.Server.result with
     | a :: _ :: rest -> a :: a :: rest
     | _ -> assert false
   in
   expect_reject "duplicate record" query (with_result resp dup));

  (* Case 2 of §4.1: forge a boundary record *)
  expect_reject "forge left boundary" query
    (with_vo resp { resp.Server.vo with Vo.left = Vo.Boundary_record (forged_record 999) });
  expect_reject "forge right boundary" query
    (with_vo resp { resp.Server.vo with Vo.right = Vo.Boundary_record (forged_record 998) });

  (* pretend the window sits elsewhere *)
  expect_reject "shift window_lo" query
    (with_vo resp { resp.Server.vo with Vo.window_lo = resp.Server.vo.Vo.window_lo + 1 });

  (* lie about the database size *)
  expect_reject "inflate n_leaves" query
    (with_vo resp { resp.Server.vo with Vo.n_leaves = resp.Server.vo.Vo.n_leaves + 1 });
  expect_reject "deflate n_leaves" query
    (with_vo resp { resp.Server.vo with Vo.n_leaves = resp.Server.vo.Vo.n_leaves - 1 });

  (* corrupt the FMH range proof *)
  (match resp.Server.vo.Vo.fmh_proof with
  | d :: rest ->
    let d' = Bytes.of_string d in
    Bytes.set d' 0 (Char.chr (Char.code (Bytes.get d' 0) lxor 1));
    expect_reject "corrupt fmh proof" query
      (with_vo resp { resp.Server.vo with Vo.fmh_proof = Bytes.to_string d' :: rest })
  | [] -> ());

  (* flip a signature bit *)
  (let s = Bytes.of_string resp.Server.vo.Vo.signature in
   Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 8));
   expect_reject_as "flip signature bit" Client.Bad_signature query
     (with_vo resp { resp.Server.vo with Vo.signature = Bytes.to_string s }));

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

(* [attempts] mutants of [original] — 1-3 bit flips and/or a
   truncation each, drawn from [seed] — skipping any that came out
   byte-identical *)
let iter_mutants ~seed ~attempts original f =
  let rng = Prng.create seed in
  for _ = 1 to attempts do
    let b = Bytes.of_string original in
    let mutate () =
      let i = Prng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))
    in
    (* 1-3 byte flips, or a truncation *)
    (match Prng.int rng 4 with
    | 0 -> mutate ()
    | 1 ->
      mutate ();
      mutate ()
    | 2 ->
      mutate ();
      mutate ();
      mutate ()
    | _ -> ());
    let mutated =
      if Prng.int rng 4 = 3 && Bytes.length b > 1 then
        Bytes.sub_string b 0 (1 + Prng.int rng (Bytes.length b - 1))
      else Bytes.to_string b
    in
    if not (String.equal mutated original) then f mutated
  done

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
         Update.Modify (Record.make ~id:(Record.id records.(1)) ~attrs:(Record.attrs records.(2)) ());
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
                    Record.make ~id:(Record.id r + 500) ~attrs:(Record.attrs r) ())
                  (Table.records table_a)))
          ~template:(Table.template table_a) ~domain:(Table.domain table_a)
      in
      let index_b = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table_b store_keypair in
      let changes = [ Update.Delete (Record.id (Table.records table_b).(0)) ] in
      let index_b' = Ifmh.apply store_keypair changes index_b in
      let delta_b = Ifmh.delta ~changes index_b' in
      let w = Aqv_util.Wire.writer () in
      Ifmh.encode_delta w delta_b;
      let frame =
        Wal.encode_frame
          { Wal.base_epoch = 1; delta = Aqv_util.Wire.contents w }
      in
      let wal = Store.wal_path dir in
      store_write wal (store_read wal ^ frame);
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
      let frame =
        Wal.encode_frame { Wal.base_epoch = 5; delta = Aqv_util.Wire.contents w }
      in
      let wal = Store.wal_path dir in
      store_write wal (store_read wal ^ frame);
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
      Record.make ~id:(Record.id r) ~attrs:(Record.attrs r) ~payload:"evil" ());
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
    Record.make ~id:(Record.id r) ~attrs:(Record.attrs r) ~payload:(String.make 4096 'x') ()
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
      W.bytes w (bytes (Z.abs (Q.num q)));
      W.bytes w (bytes (Q.den q)))
    (Record.attrs a);
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

let () =
  Alcotest.run "aqv_attacks"
    [
      ( "ifmh-one-signature",
        [
          Alcotest.test_case "response tampering" `Quick
            (against_index "one-sig" (Lazy.force index_one));
          Alcotest.test_case "top-k count" `Quick (test_topk_count (Lazy.force index_one));
          Alcotest.test_case "knn shift" `Quick (test_knn_shift (Lazy.force index_one));
        ] );
      ( "ifmh-multi-signature",
        [
          Alcotest.test_case "response tampering" `Quick
            (against_index "multi-sig" (Lazy.force index_multi));
          Alcotest.test_case "top-k count" `Quick (test_topk_count (Lazy.force index_multi));
          Alcotest.test_case "knn shift" `Quick (test_knn_shift (Lazy.force index_multi));
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
        ] );
    ]
