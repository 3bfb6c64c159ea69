(* Incremental index maintenance: Ifmh.apply / Mesh.apply must be
   bit-identical to a from-scratch build of the updated table at the
   same epoch — the headline rebuild-equivalence property — for random
   insert/delete/modify sequences, both signing schemes, 1-D and 2-D,
   sequential and parallel. Also covered here: the re-signing cost
   asymmetry (Metrics-counted, not just benched), delta shipping and
   server-side replay, and the exact-tie merge/split regressions that
   must route through Region.strictly_feasible witnesses. CI runs this
   binary under AQV_DOMAINS=1 and =2. *)

module Pool = Aqv_par.Pool
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Q = Aqv_num.Rational
module Domain = Aqv_num.Domain
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Template = Aqv_db.Template
module Workload = Aqv_db.Workload
open Aqv

let check = Alcotest.check
let hex = Aqv_util.Hex.encode
let par_pool = lazy (Pool.create ~domains:4 ())
let seq_pool = lazy (Pool.create ~domains:1 ())

(* A deterministic fake signer whose signature is a pure function of the
   digest: byte-identity of fake signatures is exactly digest identity,
   at none of the RSA cost — so the property can afford hundreds of
   cases. Each actual signing call still ticks Metrics, and [verify] is
   a real check, so client-side verification works too. *)
let fake_keypair =
  {
    Signer.algorithm = Signer.Rsa;
    sign =
      (fun d ->
        Metrics.add_sign ();
        "sig:" ^ d);
    verify = (fun d s -> String.equal s ("sig:" ^ d));
    signature_size = 36;
    public = Signer.Unverifiable;
  }

let rsa_keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 77L))

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let metrics_during f =
  Metrics.reset ();
  let before = Metrics.snapshot () in
  let x = f () in
  (x, Metrics.diff (Metrics.snapshot ()) before)

(* ------------------------ change generation ------------------------ *)

(* Random change sequences against the evolving id set, so deletes and
   modifies always target live records and inserts always use fresh
   ids. Drawn from the same Prng stream as the table: reproducible. *)
let gen_changes ~dims prng table k =
  let ids = ref (Array.to_list (Array.map Record.id (Table.records table))) in
  let next_id =
    ref (Array.fold_left (fun acc r -> max acc (Record.id r + 1)) 1000
           (Table.records table))
  in
  let mk_attrs () =
    if dims = 1 then
      [| Q.of_int (Prng.int_in prng (-50) 50); Q.of_int (Prng.int_in prng 0 50) |]
    else Array.init dims (fun _ -> Q.of_int (Prng.int_in prng 0 20))
  in
  let pick () = List.nth !ids (Prng.int prng (List.length !ids)) in
  List.init k (fun _ ->
      match Prng.int prng 3 with
      | 0 ->
        let id = !next_id in
        incr next_id;
        ids := id :: !ids;
        Update.Insert (Record.make ~id ~attrs:(mk_attrs ()) ())
      | 1 when List.length !ids > 1 ->
        let id = pick () in
        ids := List.filter (fun i -> i <> id) !ids;
        Update.Delete id
      | _ -> Update.Modify (Record.make ~id:(pick ()) ~attrs:(mk_attrs ()) ()))

(* ---------------------- rebuild equivalence ------------------------- *)

let identical ~scheme updated fresh =
  let bytes_ok = String.equal (save_bytes updated) (save_bytes fresh) in
  let root idx = (Itree.root (Ifmh.itree idx)).Itree.h in
  let sigs_ok =
    match scheme with
    | Ifmh.One_signature ->
      String.equal (Ifmh.root_signing_digest updated) (Ifmh.root_signing_digest fresh)
      && String.equal (Ifmh.root_signature updated) (Ifmh.root_signature fresh)
      && String.equal (root updated) (root fresh)
    | Ifmh.Multi_signature ->
      let n = Itree.leaf_count (Ifmh.itree updated) in
      n = Itree.leaf_count (Ifmh.itree fresh)
      && List.for_all
           (fun i ->
             String.equal (Ifmh.leaf_signing_digest updated i)
               (Ifmh.leaf_signing_digest fresh i)
             && String.equal (Ifmh.leaf_signature updated i) (Ifmh.leaf_signature fresh i))
           (List.init n Fun.id)
  in
  bytes_ok && sigs_ok

(* The property: apply ≡ from-scratch build of the updated table at the
   same epoch, byte for byte. One seed drives table shape, change count,
   and change contents. *)
let prop_rebuild_equivalence ~dims ~scheme seed =
  let prng = Prng.create (Int64.of_int seed) in
  let n = if dims = 1 then 5 + Prng.int prng 10 else 4 + Prng.int prng 4 in
  let table =
    if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
    else Workload.scored ~attr_range:20 ~n ~dims prng
  in
  let base = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
  let changes = gen_changes ~dims prng table (1 + Prng.int prng 4) in
  let updated = Ifmh.apply fake_keypair changes base in
  let fresh = Ifmh.build ~scheme ~epoch:2 (Update.apply_table changes table) fake_keypair in
  identical ~scheme updated fresh

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let equivalence_tests =
  [
    qtest "apply = rebuild (one-sig, 1-D)" 120 arb_seed
      (prop_rebuild_equivalence ~dims:1 ~scheme:Ifmh.One_signature);
    qtest "apply = rebuild (multi-sig, 1-D)" 120 arb_seed
      (prop_rebuild_equivalence ~dims:1 ~scheme:Ifmh.Multi_signature);
    qtest "apply = rebuild (one-sig, 2-D)" 100 arb_seed
      (prop_rebuild_equivalence ~dims:2 ~scheme:Ifmh.One_signature);
    qtest "apply = rebuild (multi-sig, 2-D)" 100 arb_seed
      (prop_rebuild_equivalence ~dims:2 ~scheme:Ifmh.Multi_signature);
  ]

(* Chained increments: many applies in a row stay equivalent to one
   fresh build of the final table — reuse never drifts. *)
let test_chained_applies () =
  let prng = Prng.create 31L in
  let table = Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n:12 prng in
  let scheme = Ifmh.Multi_signature in
  let index = ref (Ifmh.build ~scheme ~epoch:0 table fake_keypair) in
  let tbl = ref table in
  for _ = 1 to 5 do
    let changes = gen_changes ~dims:1 prng !tbl 2 in
    index := Ifmh.apply fake_keypair changes !index;
    tbl := Update.apply_table changes !tbl
  done;
  let fresh = Ifmh.build ~scheme ~epoch:5 !tbl fake_keypair in
  check Alcotest.bool "5 applies = 1 rebuild" true (identical ~scheme !index fresh)

(* Under a multi-domain pool, apply must stay bit-identical to the
   sequential apply (and hence to the fresh build). *)
let test_apply_parallel_identical () =
  let prng = Prng.create 32L in
  let table = Workload.lines_1d ~n:30 prng in
  let changes = gen_changes ~dims:1 prng table 3 in
  List.iter
    (fun scheme ->
      let base pool = Ifmh.build ~scheme ~epoch:1 ~pool table fake_keypair in
      let seq = Ifmh.apply ~pool:(Lazy.force seq_pool) fake_keypair changes
          (base (Lazy.force seq_pool))
      in
      let par = Ifmh.apply ~pool:(Lazy.force par_pool) fake_keypair changes
          (base (Lazy.force par_pool))
      in
      check Alcotest.string "seq apply = par apply" (hex (save_bytes seq))
        (hex (save_bytes par)))
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* ------------------------- change semantics ------------------------- *)

let line ~id a b = Record.make ~id ~attrs:[| Q.of_int a; Q.of_int b |] ()

let test_change_validation () =
  let table = Workload.lines_1d ~n:5 (Prng.create 33L) in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table fake_keypair in
  let raises msg f =
    match f () with
    | (_ : Ifmh.t) -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument _ -> ()
  in
  raises "insert existing id" (fun () ->
      Ifmh.insert fake_keypair (line ~id:0 1 2) index);
  raises "delete unknown id" (fun () -> Ifmh.delete fake_keypair 99 index);
  raises "modify unknown id" (fun () ->
      Ifmh.modify fake_keypair (line ~id:99 1 2) index);
  raises "decreasing epoch" (fun () ->
      Ifmh.apply ~epoch:(Ifmh.epoch index - 1) fake_keypair [] index);
  raises "emptying the table" (fun () ->
      Ifmh.apply fake_keypair (List.init 5 (fun id -> Update.Delete id)) index);
  (* sequential semantics: delete then re-insert the same id is legal *)
  let index' =
    Ifmh.apply fake_keypair [ Update.Delete 0; Update.Insert (line ~id:0 3 4) ] index
  in
  check Alcotest.int "epoch bumped" (Ifmh.epoch index + 1) (Ifmh.epoch index');
  check Alcotest.int "size preserved" 5 (Table.size (Ifmh.table index'))

let test_change_codec () =
  let changes =
    [ Update.Insert (line ~id:7 3 4); Update.Delete 2; Update.Modify (line ~id:1 (-5) 0) ]
  in
  let w = Wire.writer () in
  Wire.list w (Update.encode_change w) changes;
  let r = Wire.reader (Wire.contents w) in
  let back = Wire.read_list r Update.decode_change in
  check Alcotest.int "length" (List.length changes) (List.length back);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Update.Insert r1, Update.Insert r2 | Update.Modify r1, Update.Modify r2 ->
        check Alcotest.bool "record" true (Record.equal r1 r2)
      | Update.Delete i1, Update.Delete i2 -> check Alcotest.int "id" i1 i2
      | _ -> Alcotest.fail "constructor mismatch")
    changes back

(* --------------------------- compose algebra ------------------------ *)

let tables_equal a b =
  Table.size a = Table.size b
  && Array.for_all2 Record.equal (Table.records a) (Table.records b)

(* The property coalesced recovery stands on: composing two change
   lists and applying once lands on the same table — positionally, not
   just as a set — as applying them in sequence. Checked with and
   without the [exists] validation, and against the n-ary fold. *)
let prop_compose ~dims seed =
  let prng = Prng.create (Int64.of_int seed) in
  let n = if dims = 1 then 4 + Prng.int prng 8 else 3 + Prng.int prng 4 in
  let table =
    if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
    else Workload.scored ~attr_range:20 ~n ~dims prng
  in
  let a = gen_changes ~dims prng table (Prng.int prng 5) in
  let t1 = Update.apply_table a table in
  let b = gen_changes ~dims prng t1 (Prng.int prng 5) in
  let c = gen_changes ~dims prng (Update.apply_table b t1) (Prng.int prng 4) in
  let sequential = Update.apply_table c (Update.apply_table b t1) in
  let exists id = Array.exists (fun r -> Record.id r = id) (Table.records table) in
  let via_compose =
    Update.apply_table (Update.compose ~exists (Update.compose ~exists a b) c) table
  in
  let via_compose_all = Update.apply_table (Update.compose_all ~exists [ a; b; c ]) table in
  let unvalidated = Update.apply_table (Update.compose_all [ a; b; c ]) table in
  tables_equal sequential via_compose
  && tables_equal sequential via_compose_all
  && tables_equal sequential unvalidated

let test_compose_edges () =
  let r id = line ~id 2 3 in
  (* delete then re-insert must stay Delete-then-Insert: the record
     moved to the appended end, a Modify would keep its base position *)
  (match Update.compose [ Update.Delete 1 ] [ Update.Insert (r 1) ] with
  | [ Update.Delete 1; Update.Insert _ ] -> ()
  | c -> Alcotest.failf "delete+reinsert composed to %d change(s)" (List.length c));
  (* insert then delete within the sequence vanishes *)
  check Alcotest.int "insert+delete vanishes" 0
    (List.length (Update.compose [ Update.Insert (r 9) ] [ Update.Delete 9 ]));
  (* insert then modify collapses into inserting the final content *)
  (match Update.compose [ Update.Insert (r 9) ] [ Update.Modify (line ~id:9 5 5) ] with
  | [ Update.Insert r' ] ->
    check Alcotest.bool "collapsed content" true (Record.equal r' (line ~id:9 5 5))
  | c -> Alcotest.failf "insert+modify composed to %d change(s)" (List.length c));
  (* modify then delete is just the delete *)
  (match Update.compose [ Update.Modify (r 1) ] [ Update.Delete 1 ] with
  | [ Update.Delete 1 ] -> ()
  | c -> Alcotest.failf "modify+delete composed to %d change(s)" (List.length c));
  (* validation against the base id set, same errors as sequential *)
  let exists id = id < 3 in
  let raises what f =
    match f () with
    | (_ : Update.change list) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "insert existing" (fun () -> Update.compose ~exists [ Update.Insert (r 1) ] []);
  raises "delete unknown" (fun () -> Update.compose ~exists [] [ Update.Delete 7 ]);
  raises "modify unknown" (fun () -> Update.compose ~exists [ Update.Modify (r 7) ] []);
  raises "double delete" (fun () ->
      Update.compose ~exists [ Update.Delete 1 ] [ Update.Delete 1 ]);
  (* transient emptiness composes: only the final table matters *)
  check Alcotest.int "transient emptiness"
    3
    (List.length
       (Update.compose ~exists:(fun id -> id = 0)
          [ Update.Delete 0 ]
          [ Update.Insert (r 5); Update.Insert (r 6) ]))

(* ------------------------ re-signing asymmetry ---------------------- *)

(* The paper's update-cost argument, asserted on Metrics counters: a
   one-record change costs one-signature a full hash re-propagation plus
   exactly 1 signature; multi-signature re-signs one per subdomain and
   propagates nothing. And the acceptance bound: multi re-signs strictly
   fewer leaves than one-signature re-hashes bytes. *)
let test_resign_asymmetry () =
  let table = Workload.lines_1d ~n:30 (Prng.create 34L) in
  let one = Ifmh.build ~scheme:Ifmh.One_signature ~epoch:1 table fake_keypair in
  let multi = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
  let change = [ Update.Modify (line ~id:0 7 3) ] in
  let one', m_one = metrics_during (fun () -> Ifmh.apply fake_keypair change one) in
  let multi', m_multi = metrics_during (fun () -> Ifmh.apply fake_keypair change multi) in
  check Alcotest.int "one-sig apply signs exactly once" 1 m_one.Metrics.sign_ops;
  check Alcotest.int "multi apply signs one per subdomain"
    (Itree.leaf_count (Ifmh.itree multi'))
    m_multi.Metrics.sign_ops;
  check Alcotest.bool "multi sign ops < one-sig hashed bytes" true
    (m_multi.Metrics.sign_ops < m_one.Metrics.hash_bytes);
  (* a same-epoch no-op batch leaves every signing digest unchanged:
     everything hits the signature cache, nothing is re-signed *)
  List.iter
    (fun idx ->
      let noop, m =
        metrics_during (fun () ->
            Ifmh.apply ~epoch:(Ifmh.epoch idx) fake_keypair [] idx)
      in
      check Alcotest.int "no-op re-signs nothing" 0 m.Metrics.sign_ops;
      check Alcotest.string "no-op is byte-identical" (hex (save_bytes idx))
        (hex (save_bytes noop)))
    [ one'; multi' ];
  (* record-digest reuse: apply re-hashes the changed record, not all *)
  let _, m_digests =
    metrics_during (fun () -> Ifmh.apply fake_keypair change multi')
  in
  let _, m_fresh =
    metrics_during (fun () ->
        Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:3
          (Update.apply_table change (Ifmh.table multi'))
          fake_keypair)
  in
  check Alcotest.bool "apply hashes less than a fresh build" true
    (m_digests.Metrics.hash_ops < m_fresh.Metrics.hash_ops)

let test_mesh_apply () =
  let table = Workload.lines_1d ~n:20 (Prng.create 35L) in
  let mesh = Mesh.build table fake_keypair in
  let change = [ Update.Modify (line ~id:0 9 1) ] in
  let mesh', m_apply = metrics_during (fun () -> Mesh.apply fake_keypair change mesh) in
  let fresh, m_fresh =
    metrics_during (fun () -> Mesh.build (Update.apply_table change table) fake_keypair)
  in
  check Alcotest.string "mesh apply = fresh build" (hex (Mesh.fingerprint fresh))
    (hex (Mesh.fingerprint mesh'));
  check Alcotest.bool "chain repair re-signs something" true (m_apply.Metrics.sign_ops >= 1);
  check Alcotest.bool "chain repair re-signs strictly fewer runs" true
    (m_apply.Metrics.sign_ops < m_fresh.Metrics.sign_ops);
  (* delete + insert sequences repair too *)
  let changes = [ Update.Delete 3; Update.Insert (line ~id:100 (-7) 12) ] in
  let mesh2 = Mesh.apply fake_keypair changes mesh' in
  let table2 = Update.apply_table changes (Update.apply_table change table) in
  check Alcotest.string "mesh apply (ins+del) = fresh build"
    (hex (Mesh.fingerprint (Mesh.build table2 fake_keypair)))
    (hex (Mesh.fingerprint mesh2))

(* --------------------- delta shipping and replay -------------------- *)

let delta_roundtrip scheme =
  let rsa = Lazy.force rsa_keypair in
  let table = Workload.lines_1d ~n:15 (Prng.create 36L) in
  let base = Ifmh.build ~scheme ~epoch:1 table rsa in
  (* server gets the index the usual way: the owner's serialized form *)
  let server = Ifmh.load (Wire.reader (save_bytes base)) in
  let changes =
    [ Update.Insert (line ~id:500 2 9); Update.Delete 3; Update.Modify (line ~id:1 (-4) 7) ]
  in
  let updated = Ifmh.apply rsa changes base in
  check Alcotest.int "epoch bumped" 2 (Ifmh.epoch updated);
  let w = Wire.writer () in
  Ifmh.encode_delta w (Ifmh.delta ~changes updated);
  let d = Ifmh.decode_delta (Wire.reader (Wire.contents w)) in
  check Alcotest.int "delta epoch" 2 (Ifmh.delta_epoch d);
  let server' = Ifmh.apply_delta d server in
  check Alcotest.string "server replay is byte-identical" (hex (save_bytes updated))
    (hex (save_bytes server'));
  (* end-to-end: a client pinned to the new epoch accepts the
     republished server's answers *)
  let ctx =
    Client.with_min_epoch
      (Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
         ~verify_signature:rsa.Signer.verify)
      2
  in
  let q = Query.top_k ~x:[| Q.of_decimal "0.3" |] ~k:4 in
  (match Client.verify ctx q (Server.answer server' q) with
  | Ok () -> ()
  | Error r ->
    Alcotest.failf "republished server rejected: %s" (Client.rejection_to_string r));
  (* replaying the same delta again: Insert of an existing id *)
  (match Ifmh.apply_delta d server' with
  | (_ : Ifmh.t) -> Alcotest.fail "double replay: expected Failure"
  | exception Failure _ -> ());
  (* epoch regression is refused outright *)
  match Ifmh.apply_delta (Ifmh.delta ~changes:[] base) server' with
  | (_ : Ifmh.t) -> Alcotest.fail "epoch regression: expected Failure"
  | exception Failure _ -> ()

let test_delta_one () = delta_roundtrip Ifmh.One_signature
let test_delta_multi () = delta_roundtrip Ifmh.Multi_signature

(* ---------------------- served: apply == rebuild --------------------- *)

let response_bytes resp =
  let w = Wire.writer () in
  Server.encode_response w resp;
  Wire.contents w

(* Same mix as test_core's random_query: the property must hold for
   every query type, not just top-k. *)
let random_query prng table =
  let x = Workload.weight_point table prng in
  match Prng.int prng 3 with
  | 0 -> Query.top_k ~x ~k:(Prng.int_in prng 1 (Table.size table + 2))
  | 1 ->
    let size = Prng.int_in prng 1 (Table.size table) in
    let l, u = Workload.range_for_result_size table ~x ~size in
    Query.range ~x ~l ~u
  | _ ->
    let scores = Workload.scores_at table x in
    let y = snd scores.(Prng.int prng (Array.length scores)) in
    Query.knn ~x ~k:(Prng.int_in prng 1 (Table.size table + 1)) ~y

(* What a server reads off its index is what it serves: at every step of
   a random republish sequence, the applied index answers the same query
   mix with the same reply bytes as a fresh build of the updated table at
   the same epoch — and the client accepts them. *)
let prop_served_apply_eq_rebuild ~dims ~scheme seed =
  let prng = Prng.create (Int64.of_int seed) in
  let n = if dims = 1 then 5 + Prng.int prng 10 else 4 + Prng.int prng 4 in
  let table0 =
    if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
    else Workload.scored ~attr_range:20 ~n ~dims prng
  in
  let ctx =
    Client.make_ctx ~template:(Table.template table0) ~domain:(Table.domain table0)
      ~verify_signature:fake_keypair.Signer.verify
  in
  let table = ref table0 in
  let index = ref (Ifmh.build ~scheme ~epoch:1 table0 fake_keypair) in
  let ok = ref true in
  let rounds = 1 + Prng.int prng 3 in
  for _round = 1 to rounds do
    let changes = gen_changes ~dims prng !table (1 + Prng.int prng 3) in
    table := Update.apply_table changes !table;
    index := Ifmh.apply fake_keypair changes !index;
    let rebuilt = Ifmh.build ~scheme ~epoch:(Ifmh.epoch !index) !table fake_keypair in
    for _q = 1 to 6 do
      let query = random_query prng !table in
      let served = Server.answer !index query in
      ok :=
        !ok
        && String.equal (response_bytes served)
             (response_bytes (Server.answer rebuilt query))
        && Result.is_ok (Client.verify ctx query served)
    done
  done;
  !ok

let served_tests =
  [
    qtest "apply == rebuild (one-sig, 1-D)" 40 arb_seed
      (prop_served_apply_eq_rebuild ~dims:1 ~scheme:Ifmh.One_signature);
    qtest "apply == rebuild (multi-sig, 1-D)" 40 arb_seed
      (prop_served_apply_eq_rebuild ~dims:1 ~scheme:Ifmh.Multi_signature);
    qtest "apply == rebuild (one-sig, 2-D)" 25 arb_seed
      (prop_served_apply_eq_rebuild ~dims:2 ~scheme:Ifmh.One_signature);
    qtest "apply == rebuild (multi-sig, 2-D)" 25 arb_seed
      (prop_served_apply_eq_rebuild ~dims:2 ~scheme:Ifmh.Multi_signature);
  ]

(* ------------------- exact-tie merge/split fixes -------------------- *)

(* r0: x, r1: -x+1 intersect at x = 1/2; r2: the constant 2 crosses
   neither inside [0,1]. Two subdomains. *)
let tie_table () =
  Table.make
    ~records:[ line ~id:0 1 0; line ~id:1 (-1) 1; line ~id:2 0 2 ]
    ~template:Template.affine_1d
    ~domain:(Domain.of_ints [ (0, 1) ])

let queries_verify ?(pts = [ "0.25"; "0.5"; "0.75" ]) index =
  let table = Ifmh.table index in
  let ctx =
    Client.with_min_epoch
      (Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
         ~verify_signature:fake_keypair.Signer.verify)
      (Ifmh.epoch index)
  in
  List.iter
    (fun p ->
      let q = Query.top_k ~x:[| Q.of_decimal p |] ~k:2 in
      match Client.verify ctx q (Server.answer index q) with
      | Ok () -> ()
      | Error r ->
        Alcotest.failf "query at %s rejected: %s" p (Client.rejection_to_string r))
    pts

(* An update that makes two intersecting lines parallel removes the
   boundary: subdomains merge. *)
let test_tie_merge () =
  let table = tie_table () in
  List.iter
    (fun scheme ->
      let base = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
      check Alcotest.int "2 subdomains before" 2 (Itree.leaf_count (Ifmh.itree base));
      let change = [ Update.Modify (line ~id:1 1 1) ] in
      let updated = Ifmh.apply fake_keypair change base in
      check Alcotest.int "1 subdomain after merge" 1
        (Itree.leaf_count (Ifmh.itree updated));
      let fresh =
        Ifmh.build ~scheme ~epoch:2 (Update.apply_table change table) fake_keypair
      in
      check Alcotest.bool "merge: apply = rebuild" true (identical ~scheme updated fresh);
      queries_verify updated)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* An insert whose line passes exactly through the existing boundary
   point (1/2, 1/2): every new pair ties exactly on that facet. The
   interior witnesses (Region.strictly_feasible) must keep sorting
   strictly inside each cell — at the boundary itself three functions
   are equal and any consistent order verifies. *)
let test_tie_split () =
  let table = tie_table () in
  List.iter
    (fun scheme ->
      let base = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
      (* 3x - 1 = x at x = 1/2, and 3x - 1 = -x + 1 at x = 1/2 *)
      let change = [ Update.Insert (line ~id:3 3 (-1)) ] in
      let updated = Ifmh.apply fake_keypair change base in
      check Alcotest.int "still 2 subdomains (coincident boundary)" 2
        (Itree.leaf_count (Ifmh.itree updated));
      let fresh =
        Ifmh.build ~scheme ~epoch:2 (Update.apply_table change table) fake_keypair
      in
      check Alcotest.bool "tie insert: apply = rebuild" true
        (identical ~scheme updated fresh);
      queries_verify updated)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* The 2-D analogue: inserting a scoring vector whose differences with
   two existing records are both proportional to (1, -1) adds pairs
   whose hyperplane coincides exactly with the existing x1 = x2
   boundary — a split that must dedup against it, with every witness
   strictly inside its cell. *)
let test_tie_split_2d () =
  let rec2 id attrs = Record.make ~id ~attrs:(Array.map Q.of_int attrs) () in
  let table =
    Table.make
      ~records:[ rec2 0 [| 1; 2 |]; rec2 1 [| 2; 1 |] ]
      ~template:(Template.linear_weights ~dims:2)
      ~domain:(Domain.unit_box 2)
  in
  List.iter
    (fun scheme ->
      let base = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
      check Alcotest.int "2 cells before" 2 (Itree.leaf_count (Ifmh.itree base));
      let change = [ Update.Insert (rec2 2 [| 3; 0 |]) ] in
      let updated = Ifmh.apply fake_keypair change base in
      check Alcotest.int "still 2 cells (coincident hyperplane)" 2
        (Itree.leaf_count (Ifmh.itree updated));
      let fresh =
        Ifmh.build ~scheme ~epoch:2 (Update.apply_table change table) fake_keypair
      in
      check Alcotest.bool "2-D tie insert: apply = rebuild" true
        (identical ~scheme updated fresh))
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* ------------------- signing digests on the server ------------------ *)

let random_table ~dims prng =
  let n = if dims = 1 then 5 + Prng.int prng 10 else 4 + Prng.int prng 4 in
  if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
  else Workload.scored ~attr_range:20 ~n ~dims prng

let load_of index = Ifmh.load (Wire.reader (save_bytes index))

let leaf_digests index =
  List.init (Itree.leaf_count (Ifmh.itree index)) (Ifmh.leaf_signing_digest index)

(* The owner computes every leaf signing digest in one prefix-sharing
   I-tree walk; the client recomputes one leaf's with
   [leaf_digest_for_signing] from the constraint list its VO carries.
   They must agree leaf by leaf, and the walk (forced on a loaded
   index, which holds no digests) must count one hash per leaf over
   the same message bytes. *)
let prop_walk_is_per_leaf ~dims seed =
  let prng = Prng.create (Int64.of_int seed) in
  let table = random_table ~dims prng in
  let epoch = Prng.int prng 5 in
  let index = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch table fake_keypair in
  let rdig = Array.map Record.digest (Table.records table) in
  let per_leaf, m_per_leaf =
    metrics_during (fun () ->
        Array.to_list
          (Array.map
             (fun (node : Itree.node) ->
               match node.Itree.kind with
               | Itree.Inode _ -> assert false
               | Itree.Leaf lf ->
                 let cons_digests =
                   List.rev_map
                     (fun (i, j, side) ->
                       (rdig.(i), rdig.(j), side))
                     lf.Itree.cons
                 in
                 Ifmh.leaf_digest_for_signing ~domain:(Table.domain table) ~cons_digests
                   ~fmh_root:(Sorting.fmh_root (Ifmh.sorting index) lf.Itree.id)
                   ~n_leaves:(Table.size table + 2) ~epoch)
             (Itree.leaves (Ifmh.itree index))))
  in
  let loaded = load_of index in
  let walked, m_walk = metrics_during (fun () -> leaf_digests loaded) in
  per_leaf = leaf_digests index
  && per_leaf = walked
  && m_walk.Metrics.hash_ops = m_per_leaf.Metrics.hash_ops
  && m_walk.Metrics.hash_bytes = m_per_leaf.Metrics.hash_bytes

(* A server's index holds no signing digests; asked for them, it must
   return exactly what the owner signed — after load and after a
   replayed delta. *)
let test_server_digests () =
  List.iter
    (fun dims ->
      let prng = Prng.create (Int64.of_int (40 + dims)) in
      let table = random_table ~dims prng in
      let owner = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let server = load_of owner in
      check Alcotest.(list string) "load = owner" (List.map hex (leaf_digests owner))
        (List.map hex (leaf_digests server));
      let changes = gen_changes ~dims prng table 3 in
      let owner' = Ifmh.apply fake_keypair changes owner in
      let server' = Ifmh.apply_delta (Ifmh.delta ~changes owner') server in
      check Alcotest.(list string) "apply_delta = owner" (List.map hex (leaf_digests owner'))
        (List.map hex (leaf_digests server')))
    [ 1; 2 ]

(* The owner may apply on top of a loaded index (e.g. after a restart):
   the reuse cache then comes from recomputed digests, and the result
   must equal applying on the built index byte for byte — and a
   same-epoch no-op must still re-sign nothing. *)
let test_apply_on_loaded () =
  List.iter
    (fun (dims, scheme) ->
      let prng = Prng.create (Int64.of_int (50 + dims)) in
      let table = random_table ~dims prng in
      let built = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
      let loaded = load_of built in
      let changes = gen_changes ~dims prng table 2 in
      let a = Ifmh.apply fake_keypair changes built in
      let b = Ifmh.apply fake_keypair changes loaded in
      check Alcotest.bool "apply on loaded = apply on built" true (identical ~scheme a b);
      let noop, m =
        metrics_during (fun () -> Ifmh.apply ~epoch:(Ifmh.epoch loaded) fake_keypair [] loaded)
      in
      check Alcotest.int "no-op on loaded re-signs nothing" 0 m.Metrics.sign_ops;
      check Alcotest.string "no-op on loaded is byte-identical" (hex (save_bytes built))
        (hex (save_bytes noop)))
    [ (1, Ifmh.One_signature); (1, Ifmh.Multi_signature); (2, Ifmh.One_signature);
      (2, Ifmh.Multi_signature) ]

(* A one-signature snapshot or delta without its root signature is
   refused before any rebuild work: same message, no hash counted. *)
let test_cheap_checks_first () =
  let refused name msg f =
    let (), m =
      metrics_during (fun () ->
          match f () with
          | (_ : Ifmh.t) -> Alcotest.failf "%s: expected Failure" name
          | exception Failure got -> check Alcotest.string name msg got)
    in
    check Alcotest.int (name ^ ": no hash before refusing") 0 m.Metrics.hash_ops
  in
  let table = Workload.lines_1d ~n:12 (Prng.create 60L) in
  let multi = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
  let one = Ifmh.build ~scheme:Ifmh.One_signature ~epoch:1 table fake_keypair in
  (* a multi-signature image relabelled one-signature: no root signature *)
  let image = Bytes.of_string (save_bytes multi) in
  Bytes.set image 0 '\000';
  refused "load" "Ifmh.load: missing signature" (fun () ->
      Ifmh.load (Wire.reader (Bytes.to_string image)));
  (* a multi-signature delta carries no root signature *)
  let changes = [ Update.Modify (line ~id:(Record.id (Table.record table 0)) 3 5) ] in
  let d = Ifmh.delta ~changes (Ifmh.apply fake_keypair changes multi) in
  refused "apply_delta" "Ifmh.apply_delta: missing signature" (fun () ->
      Ifmh.apply_delta d one)

let () =
  Alcotest.run "aqv_update"
    [
      ("equivalence", equivalence_tests);
      ( "incremental",
        [
          Alcotest.test_case "chained applies" `Quick test_chained_applies;
          Alcotest.test_case "parallel apply identical" `Quick
            test_apply_parallel_identical;
          Alcotest.test_case "change validation" `Quick test_change_validation;
          Alcotest.test_case "change codec" `Quick test_change_codec;
        ] );
      ( "compose",
        [
          qtest "compose = sequential apply (1-D)" 150 arb_seed (prop_compose ~dims:1);
          qtest "compose = sequential apply (2-D)" 100 arb_seed (prop_compose ~dims:2);
          Alcotest.test_case "compose edge cases" `Quick test_compose_edges;
        ] );
      ( "cost",
        [
          Alcotest.test_case "re-signing asymmetry" `Quick test_resign_asymmetry;
          Alcotest.test_case "mesh chain repair" `Quick test_mesh_apply;
        ] );
      ( "delta",
        [
          Alcotest.test_case "roundtrip one-sig" `Quick test_delta_one;
          Alcotest.test_case "roundtrip multi-sig" `Quick test_delta_multi;
        ] );
      ("served", served_tests);
      ( "digests",
        [
          qtest "walk = per-leaf digest (1-D)" 100 arb_seed (prop_walk_is_per_leaf ~dims:1);
          qtest "walk = per-leaf digest (2-D)" 60 arb_seed (prop_walk_is_per_leaf ~dims:2);
          Alcotest.test_case "load and apply_delta return the owner's digests" `Quick
            test_server_digests;
          Alcotest.test_case "apply on loaded = apply on built" `Quick test_apply_on_loaded;
          Alcotest.test_case "cheap checks before the rebuild" `Quick
            test_cheap_checks_first;
        ] );
      ( "ties",
        [
          Alcotest.test_case "merge on parallel update" `Quick test_tie_merge;
          Alcotest.test_case "split at exact boundary" `Quick test_tie_split;
          Alcotest.test_case "2-D coincident hyperplane" `Quick test_tie_split_2d;
        ] );
    ]
