(* Core integration tests: query window semantics vs brute force, I-tree
   geometry, per-subdomain sort correctness, and honest end-to-end
   answer+verify runs across query types, signing schemes, and
   dimensions. *)

module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Domain = Aqv_num.Domain
module Region = Aqv_num.Region
module Prng = Aqv_util.Prng
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Template = Aqv_db.Template
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
module Mesh_ref = Aqv_ref.Mesh_ref
module Num_ref = Aqv_ref.Num_ref
module Core_ref = Aqv_ref.Core_ref
module Window_ref = Aqv_ref.Window_ref
open Aqv
open Aqv_baseline

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* One shared keypair: key generation is the slow part. *)
let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 42L))

(* ------------------------- query semantics -------------------------- *)

(* the window search compares scores unreduced, as the server scores
   them *)
let arr_accessor a i = Q.to_unreduced a.(i)

let test_window_topk () =
  let scores = Array.map Q.of_int [| 1; 3; 5; 7; 9 |] in
  let score = arr_accessor scores in
  let w k = Query.window ~n:5 ~score (Query.top_k ~x:[| Q.zero |] ~k) in
  check Alcotest.(option (pair int int)) "top-2" (Some (3, 4)) (w 2);
  check Alcotest.(option (pair int int)) "top-5" (Some (0, 4)) (w 5);
  check Alcotest.(option (pair int int)) "top-9 (clamped)" (Some (0, 4)) (w 9)

let test_window_range () =
  let scores = Array.map Q.of_int [| 1; 3; 5; 7; 9 |] in
  let score = arr_accessor scores in
  let w l u =
    Query.window ~n:5 ~score (Query.range ~x:[| Q.zero |] ~l:(Q.of_int l) ~u:(Q.of_int u))
  in
  check Alcotest.(option (pair int int)) "inner" (Some (1, 3)) (w 2 8);
  check Alcotest.(option (pair int int)) "exact bounds" (Some (1, 3)) (w 3 7);
  check Alcotest.(option (pair int int)) "all" (Some (0, 4)) (w 0 100);
  check Alcotest.(option (pair int int)) "empty inside" None (w 4 4);
  check Alcotest.(option (pair int int)) "empty left" None (w (-5) 0);
  check Alcotest.(option (pair int int)) "empty right" None (w 10 20);
  check Alcotest.(option (pair int int)) "single" (Some (2, 2)) (w 5 5)

let test_window_knn () =
  let scores = Array.map Q.of_int [| 1; 3; 5; 7; 9 |] in
  let score = arr_accessor scores in
  let w k y = Query.window ~n:5 ~score (Query.knn ~x:[| Q.zero |] ~k ~y:(Q.of_int y)) in
  check Alcotest.(option (pair int int)) "1nn of 5" (Some (2, 2)) (w 1 5);
  check Alcotest.(option (pair int int)) "2nn of 5" (Some (1, 2)) (w 2 5) (* tie 3 vs 7 -> left *);
  check Alcotest.(option (pair int int)) "3nn of 0" (Some (0, 2)) (w 3 0);
  check Alcotest.(option (pair int int)) "3nn of 100" (Some (2, 4)) (w 3 100);
  check Alcotest.(option (pair int int)) "knn all" (Some (0, 4)) (w 12 4)

(* brute-force reference for window semantics on random sorted arrays *)
let window_vs_bruteforce =
  qtest ~count:300 "window = brute force"
    QCheck.(triple (list_of_size Gen.(int_range 1 25) (int_range 0 40)) (int_range 1 8) (int_range 0 40))
    (fun (raw, k, y) ->
      let sorted = List.sort compare raw in
      let scores = Array.of_list (List.map Q.of_int sorted) in
      let n = Array.length scores in
      let score = arr_accessor scores in
      (* top-k *)
      let ok_topk =
        match Query.window ~n ~score (Query.top_k ~x:[| Q.zero |] ~k) with
        | Some (a, b) -> b = n - 1 && b - a + 1 = min k n
        | None -> false
      in
      (* range [y-5, y+5] *)
      let l = Q.of_int (y - 5) and u = Q.of_int (y + 5) in
      let expect_count =
        List.length (List.filter (fun v -> v >= y - 5 && v <= y + 5) sorted)
      in
      let ok_range =
        match Query.window ~n ~score (Query.range ~x:[| Q.zero |] ~l ~u) with
        | Some (a, b) ->
          b - a + 1 = expect_count
          && List.for_all
               (fun i -> Q.compare l scores.(i) <= 0 && Q.compare scores.(i) u <= 0)
               (List.init (b - a + 1) (fun t -> a + t))
        | None -> expect_count = 0
      in
      (* knn: window of the right size whose max distance is minimal *)
      let yq = Q.of_int y in
      let ok_knn =
        match Query.window ~n ~score (Query.knn ~x:[| Q.zero |] ~k ~y:yq) with
        | Some (a, b) ->
          let size = min k n in
          let dist i = Q.abs (Q.sub scores.(i) yq) in
          let window_max =
            List.fold_left
              (fun acc i -> Q.max acc (dist i))
              Q.zero
              (List.init (b - a + 1) (fun t -> a + t))
          in
          (* best achievable max-distance over all windows of this size *)
          let best = ref None in
          for s = 0 to n - size do
            let m = ref Q.zero in
            for i = s to s + size - 1 do
              m := Q.max !m (dist i)
            done;
            match !best with
            | None -> best := Some !m
            | Some b0 -> if Q.compare !m b0 < 0 then best := Some !m
          done;
          b - a + 1 = size && Q.equal window_max (Option.get !best)
        | None -> false
      in
      ok_topk && ok_range && ok_knn)

(* Values for the window law: small integers and fractions, which tie
   often; fractions whose numerator and denominator pass 2^31, so a
   compare or a sum leaves machine words; and values past 2^63, held as
   Bigints. *)
let law_value =
  let open QCheck.Gen in
  let big = Q.of_decimal "9223372036854775808" in
  frequency
    [
      (4, map Q.of_int (int_range (-6) 6));
      (3, map2 Q.of_ints (int_range (-40) 40) (int_range 1 12));
      (2, map2 Q.of_ints (int_range (-(1 lsl 40)) (1 lsl 40)) (int_range 1 (1 lsl 33)));
      ( 1,
        map2
          (fun neg p -> Q.add (if neg then Q.neg big else big) (Q.of_ints p 3))
          bool (int_range (-9) 9) );
    ]

(* A bound for a range or a KNN target: a score itself (a tie), the
   midpoint of two scores (a KNN tie at equal distance), or any value. *)
let law_bound vals =
  let open QCheck.Gen in
  let n = Array.length vals in
  if n = 0 then law_value
  else
    frequency
      [
        (2, map (Array.get vals) (int_bound (n - 1)));
        (2, map2 (fun i j -> Q.average vals.(i) vals.(j)) (int_bound (n - 1)) (int_bound (n - 1)));
        (1, law_value);
      ]

(* Sorted scores (one in five cases all equal), a form for each, k up
   to n + 3, a range (one in four empty-or-single-point, l = u) and a
   KNN target. *)
let law_case =
  let open QCheck.Gen in
  int_range 0 14 >>= fun n ->
  frequency
    [ (4, list_repeat n law_value); (1, map (fun v -> List.init n (fun _ -> v)) law_value) ]
  >>= fun vs ->
  let vals = Array.of_list (List.sort Q.compare vs) in
  list_repeat n (int_bound 2) >>= fun forms ->
  law_bound vals >>= fun b1 ->
  frequency [ (3, law_bound vals); (1, return b1) ] >>= fun b2 ->
  law_bound vals >>= fun y ->
  int_range 1 (n + 3) >>= fun k ->
  let l, u = if Q.compare b1 b2 <= 0 then (b1, b2) else (b2, b1) in
  return (vals, Array.of_list forms, k, l, u, y)

let print_law_case (vals, forms, k, l, u, y) =
  Printf.sprintf "scores [%s] k=%d l=%s u=%s y=%s"
    (String.concat "; "
       (Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s#%d" (Q.to_string v) forms.(i)) vals)))
    k (Q.to_string l) (Q.to_string u) (Q.to_string y)

(* [v] unreduced, in one of three forms: as it is, as v/2 + v/2, or as
   v/3 + 2v/3. [Rational.affine_unreduced] sums native terms over one
   denominator without a gcd, so 3/5 becomes 6/10 or 45/75. *)
let unreduced_form form v =
  match form with
  | 0 -> Q.to_unreduced v
  | 1 -> Q.affine_unreduced (Q.div v (Q.of_int 2)) [| Q.of_ints 1 2 |] [| v |]
  | _ -> Q.affine_unreduced (Q.div v (Q.of_int 3)) [| Q.of_ints 2 3 |] [| v |]

(* The window law: [Query.window] and [Query.insertion_point] on
   unreduced scores give the reduced oracle's window and insertion point
   ([test/ref/window_ref.ml]) for every query type, and each unreduced
   score has its reduced value's sign. *)
let window_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~long_factor:20 ~name:"unreduced window = reduced oracle"
       (QCheck.make ~print:print_law_case law_case)
       (fun (vals, forms, k, l, u, y) ->
         let n = Array.length vals in
         let unreduced = Array.mapi (fun i v -> unreduced_form forms.(i) v) vals in
         let got = Query.window ~n ~score:(Array.get unreduced) in
         let want = Window_ref.window ~n ~score:(Array.get vals) in
         let same_insertion v =
           Query.insertion_point ~n ~score:(Array.get unreduced) (Q.to_unreduced v)
           = Window_ref.insertion_point ~n ~score:(Array.get vals) v
         in
         let x = [| Q.zero |] in
         Array.for_all2
           (fun v r -> Q.equal v (Q.of_unreduced r) && Q.sign_unreduced r = Q.sign v)
           vals unreduced
         && List.for_all
              (fun q -> got q = want q)
              [ Query.top_k ~x ~k; Query.range ~x ~l ~u; Query.knn ~x ~k ~y ]
         && same_insertion l && same_insertion u && same_insertion y))

(* ------------------------------ itree ------------------------------- *)

let test_itree_1d_structure () =
  let table = Workload.lines_1d ~n:20 (Prng.create 1L) in
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  (* leaves tile the domain left to right *)
  let k = Itree.leaf_count tree in
  check Alcotest.bool "at least one leaf" true (k >= 1);
  let prev_hi = ref (Domain.lo (Table.domain table) 0) in
  for id = 0 to k - 1 do
    let lo, hi = Core_ref.leaf_interval tree id in
    check Alcotest.bool "contiguous tiling" true (Q.equal lo !prev_hi);
    check Alcotest.bool "nonempty" true (Q.compare lo hi < 0);
    prev_hi := hi
  done;
  check Alcotest.bool "ends at domain hi" true
    (Q.equal !prev_hi (Domain.hi (Table.domain table) 0))

let test_itree_locate_consistent () =
  let table = Workload.lines_1d ~n:15 (Prng.create 2L) in
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  let rng = Prng.create 3L in
  for _ = 1 to 200 do
    let x = Workload.weight_point table rng in
    let _, leaf = Itree.locate tree x in
    let node = (Itree.leaves tree).(leaf.Itree.id) in
    check Alcotest.bool "leaf region contains x" true
      (Num_ref.region_contains ~domain:(Table.domain table) node.Itree.region x)
  done

let test_itree_outside_domain () =
  let table = Workload.lines_1d ~n:5 (Prng.create 4L) in
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  Alcotest.check_raises "outside" (Invalid_argument "Itree.locate: outside domain") (fun () ->
      ignore (Itree.locate tree [| Q.of_int 5 |]))

let test_itree_single_function () =
  let table = Workload.lines_1d ~n:1 (Prng.create 5L) in
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  check Alcotest.int "one leaf" 1 (Itree.leaf_count tree);
  check Alcotest.int "no intersections" 0 (Itree.intersection_count tree)

let test_itree_2d () =
  let table = Workload.scored ~n:6 ~dims:2 (Prng.create 6L) in
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  check Alcotest.bool "leaves exist" true (Itree.leaf_count tree >= 1);
  let rng = Prng.create 7L in
  for _ = 1 to 50 do
    let x = Workload.weight_point table rng in
    let _, leaf = Itree.locate tree x in
    let node = (Itree.leaves tree).(leaf.Itree.id) in
    check Alcotest.bool "region contains x" true
      (Num_ref.region_contains ~domain:(Table.domain table) node.Itree.region x)
  done

(* ------------------------------ sorting ----------------------------- *)

let sorting_matches_bruteforce table =
  let tree = Itree.build (Table.domain table) (Table.functions table) in
  let sorting = Sorting.build table tree in
  let fns = Table.functions table in
  Array.iter
    (fun (node : Itree.node) ->
      match node.Itree.kind with
      | Itree.Inode _ -> assert false
      | Itree.Leaf lf ->
        let sample = Region.interior_point node.Itree.region in
        let expect = Array.init (Array.length fns) Fun.id in
        let score = Array.map (fun f -> Linfun.eval f sample) fns in
        Array.sort
          (fun a b ->
            let c = Q.compare score.(a) score.(b) in
            if c <> 0 then c else compare a b)
          expect;
        let fmh = Sorting.leaf sorting lf.Itree.id in
        let n = Array.length fns in
        let got = Array.init n (fun k -> Mht.value fmh (k + 1)) in
        if got <> expect then
          Alcotest.failf "leaf %d: order mismatch" lf.Itree.id;
        (* each leaf commits the record whose position it holds; the
           sentinels hold none *)
        if Mht.value fmh 0 <> -1 || Mht.value fmh (n + 1) <> -1 then
          Alcotest.failf "leaf %d: sentinel holds a position" lf.Itree.id;
        for pos = 1 to n do
          let d = Record.digest (Table.record table (Mht.value fmh pos)) in
          if not (String.equal (Mht.leaf fmh pos) d) then
            Alcotest.failf "leaf %d: FMH leaf %d commits another record" lf.Itree.id pos
        done)
    (Itree.leaves tree)

let test_sorting_1d () =
  sorting_matches_bruteforce (Workload.lines_1d ~n:25 (Prng.create 8L))

let test_sorting_1d_more =
  qtest ~count:20 "1d sorting matches brute force (random)" QCheck.(int_range 2 35)
    (fun seed ->
      sorting_matches_bruteforce
        (Workload.lines_1d ~n:(2 + (seed mod 30)) (Prng.create (Int64.of_int seed)));
      true)

let test_sorting_2d () =
  sorting_matches_bruteforce (Workload.scored ~n:7 ~dims:2 (Prng.create 9L))

let test_sorting_3d () =
  sorting_matches_bruteforce (Workload.scored ~n:5 ~dims:3 (Prng.create 10L))

(* --------------------------- end to end ----------------------------- *)

(* independent reference answer *)
let reference_answer table query =
  let x = Query.x query in
  let sorted = Workload.scores_at table x in
  let n = Array.length sorted in
  let scores = Array.map snd sorted in
  match Window_ref.window ~n ~score:(Array.get scores) query with
  | None -> []
  | Some (a, b) -> List.init (b - a + 1) (fun k -> Table.record table (fst sorted.(a + k)))

let random_query table rng =
  let x = Workload.weight_point table rng in
  match Prng.int rng 3 with
  | 0 -> Query.top_k ~x ~k:(Prng.int_in rng 1 (Table.size table + 2))
  | 1 ->
    let size = Prng.int_in rng 1 (Table.size table) in
    let l, u = Workload.range_for_result_size table ~x ~size in
    Query.range ~x ~l ~u
  | _ ->
    let scores = Workload.scores_at table x in
    let y = snd scores.(Prng.int rng (Array.length scores)) in
    (* nudge y off the exact score half the time *)
    let y = if Prng.bool rng then Q.add y (Q.of_ints 1 7919) else y in
    Query.knn ~x ~k:(Prng.int_in rng 1 (Table.size table + 1)) ~y

let end_to_end ~scheme ~table ~queries ~rng =
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~scheme table kp in
  let ctx =
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:kp.Signer.verify
  in
  for qi = 1 to queries do
    let query = random_query table rng in
    let resp = Server.answer index query in
    (* The result must match the independent reference. When the query
       point lies exactly on an intersection hyperplane, records tie in
       score and several answer sets are equally correct — so compare
       the score multisets, which are invariant under tie swaps. *)
    let score_multiset records =
      let x = Query.x query in
      records
      |> List.map (fun r ->
             Q.to_string (Linfun.eval (Template.apply (Table.template table) r) x))
      |> List.sort compare
    in
    let expect = reference_answer table query in
    let got = resp.Server.result in
    if score_multiset got <> score_multiset expect then
      Alcotest.failf "query %d (%s): wrong result (%d vs %d records)" qi
        (Format.asprintf "%a" Query.pp query)
        (List.length got) (List.length expect);
    (* client must accept *)
    match Client.verify ctx query resp with
    | Ok () -> ()
    | Error r ->
      Alcotest.failf "query %d (%s): rejected honest response: %s" qi
        (Format.asprintf "%a" Query.pp query)
        (Client.rejection_to_string r)
  done

let test_e2e_1d_one_sig () =
  let table = Workload.lines_1d ~n:30 (Prng.create 20L) in
  end_to_end ~scheme:Ifmh.One_signature ~table ~queries:60 ~rng:(Prng.create 21L)

let test_e2e_1d_multi_sig () =
  let table = Workload.lines_1d ~n:30 (Prng.create 22L) in
  end_to_end ~scheme:Ifmh.Multi_signature ~table ~queries:60 ~rng:(Prng.create 23L)

let test_e2e_2d_one_sig () =
  let table = Workload.scored ~n:8 ~dims:2 (Prng.create 24L) in
  end_to_end ~scheme:Ifmh.One_signature ~table ~queries:30 ~rng:(Prng.create 25L)

let test_e2e_3d_multi_sig () =
  let table = Workload.scored ~n:6 ~dims:3 (Prng.create 26L) in
  end_to_end ~scheme:Ifmh.Multi_signature ~table ~queries:20 ~rng:(Prng.create 27L)

let test_e2e_tiny_table () =
  let table = Workload.lines_1d ~n:2 (Prng.create 28L) in
  end_to_end ~scheme:Ifmh.One_signature ~table ~queries:20 ~rng:(Prng.create 29L);
  end_to_end ~scheme:Ifmh.Multi_signature ~table ~queries:20 ~rng:(Prng.create 30L)

let test_e2e_single_record () =
  let table = Workload.lines_1d ~n:1 (Prng.create 31L) in
  end_to_end ~scheme:Ifmh.One_signature ~table ~queries:10 ~rng:(Prng.create 32L)

let test_e2e_dsa () =
  let table = Workload.lines_1d ~n:10 (Prng.create 33L) in
  let kp = Signer.generate ~bits:512 Signer.Dsa (Prng.create 34L) in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table kp in
  let ctx =
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:kp.Signer.verify
  in
  let rng = Prng.create 35L in
  for _ = 1 to 10 do
    let query = random_query table rng in
    let resp = Server.answer index query in
    check Alcotest.bool "accepts" true (Client.accepts ctx query resp)
  done

(* VO stays small: logarithmic proof, not linear in n *)
let test_vo_size_sublinear () =
  let kp = Lazy.force keypair in
  let sizes =
    List.map
      (fun n ->
        let table = Workload.lines_1d ~n (Prng.create 40L) in
        let index = Ifmh.build ~scheme:Ifmh.Multi_signature table kp in
        let x = Workload.weight_point table (Prng.create 41L) in
        let resp = Server.answer index (Query.top_k ~x ~k:3) in
        Vo.size_bytes resp.Server.vo)
      [ 16; 64 ]
  in
  match sizes with
  | [ s16; s64 ] ->
    (* 4x records should grow the VO by far less than 4x *)
    check Alcotest.bool "sublinear growth" true (s64 < s16 * 3)
  | _ -> assert false

(* ------------------------------ edges ------------------------------- *)

(* empty range answers carry a two-record adjacency proof *)
let test_empty_range_verifies () =
  let table = Workload.lines_1d ~n:20 (Prng.create 60L) in
  let kp = Lazy.force keypair in
  let ctx scheme =
    ( Ifmh.build ~scheme table kp,
      Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
        ~verify_signature:kp.Signer.verify )
  in
  let rng = Prng.create 61L in
  List.iter
    (fun scheme ->
      let index, c = ctx scheme in
      for _ = 1 to 15 do
        let x = Workload.weight_point table rng in
        let sorted = Workload.scores_at table x in
        (* a gap strictly between two consecutive scores, or beyond the ends *)
        let l, u =
          match Prng.int rng 3 with
          | 0 ->
            let i = Prng.int rng (Array.length sorted - 1) in
            let a = snd sorted.(i) and b = snd sorted.(i + 1) in
            if Q.equal a b then (Q.sub a Q.one, Q.sub a Q.one) (* degenerate; harmless *)
            else begin
              let m = Q.average a b in
              (m, m)
            end
          | 1 -> (Q.sub (snd sorted.(0)) (Q.of_int 10), Q.sub (snd sorted.(0)) (Q.of_int 5))
          | _ ->
            let top = snd sorted.(Array.length sorted - 1) in
            (Q.add top (Q.of_int 5), Q.add top (Q.of_int 10))
        in
        if Q.compare l u <= 0 then begin
          let q = Query.range ~x ~l ~u in
          let resp = Server.answer index q in
          let expect = reference_answer table q in
          check Alcotest.int "result size" (List.length expect) (List.length resp.Server.result);
          match Client.verify c q resp with
          | Ok () -> ()
          | Error r ->
            Alcotest.failf "empty range rejected (%s): %s"
              (Format.asprintf "%a" Query.pp q)
              (Client.rejection_to_string r)
        end
      done)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* query inputs exactly on subdomain boundaries and domain edges *)
let test_boundary_inputs () =
  let table = Workload.lines_1d ~n:15 (Prng.create 62L) in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table kp in
  let c =
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:kp.Signer.verify
  in
  let tree = Ifmh.itree index in
  let dom = Table.domain table in
  (* boundary points: every subdomain's left endpoint, plus both domain
     edges *)
  let points = ref [ [| Domain.lo dom 0 |]; [| Domain.hi dom 0 |] ] in
  for id = 1 to Itree.leaf_count tree - 1 do
    let lo, _ = Core_ref.leaf_interval tree id in
    points := [| lo |] :: !points
  done;
  List.iter
    (fun x ->
      List.iter
        (fun q ->
          let resp = Server.answer index q in
          match Client.verify c q resp with
          | Ok () -> ()
          | Error r ->
            Alcotest.failf "boundary input rejected (%s): %s"
              (Format.asprintf "%a" Query.pp q)
              (Client.rejection_to_string r))
        [
          Query.top_k ~x ~k:3;
          Query.knn ~x ~k:2 ~y:(Q.of_int 500);
          Query.range ~x ~l:(Q.of_int 100) ~u:(Q.of_int 600);
        ])
    !points

let test_answer_outside_domain () =
  let table = Workload.lines_1d ~n:5 (Prng.create 63L) in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table (Lazy.force keypair) in
  Alcotest.check_raises "outside" (Invalid_argument "Itree.locate: outside domain")
    (fun () -> ignore (Server.answer index (Query.top_k ~x:[| Q.of_int 7 |] ~k:1)))

(* identical functions in the table: ties broken by position, still
   verifiable *)
let test_identical_functions () =
  let mk id a b =
    Record.make ~id ~attrs:[| Q.of_int a; Q.of_int b |] ()
  in
  let records = [ mk 0 2 5; mk 1 2 5; mk 2 (-1) 9; mk 3 2 5; mk 4 0 7 ] in
  let table =
    Table.make ~records ~template:Template.affine_1d
      ~domain:(Aqv_num.Domain.of_ints [ (0, 4) ])
  in
  let kp = Lazy.force keypair in
  List.iter
    (fun scheme ->
      let index = Ifmh.build ~scheme table kp in
      let c =
        Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
          ~verify_signature:kp.Signer.verify
      in
      let rng = Prng.create 64L in
      for _ = 1 to 20 do
        let x = Workload.weight_point table rng in
        let q = Query.top_k ~x ~k:(Prng.int_in rng 1 5) in
        let resp = Server.answer index q in
        match Client.verify c q resp with
        | Ok () -> ()
        | Error r -> Alcotest.failf "identical functions rejected: %s" (Client.rejection_to_string r)
      done)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

(* tables over shifted/negative domains and with negative intercepts:
   no part of the pipeline may assume the weight domain starts at 0 or
   that scores are positive *)
let test_custom_domain_e2e () =
  let rng = Prng.create 70L in
  let records =
    List.init 18 (fun i ->
        Record.make ~id:i
          ~attrs:[| Q.of_int (Prng.int_in rng (-50) 50); Q.of_int (Prng.int_in rng (-300) 300) |]
          ())
  in
  let table =
    Table.make ~records ~template:Template.affine_1d
      ~domain:(Aqv_num.Domain.of_ints [ (-5, 7) ])
  in
  let kp = Lazy.force keypair in
  List.iter
    (fun scheme ->
      let index = Ifmh.build ~scheme table kp in
      let c =
        Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
          ~verify_signature:kp.Signer.verify
      in
      let qrng = Prng.create 71L in
      for _ = 1 to 25 do
        let query = random_query table qrng in
        let resp = Server.answer index query in
        match Client.verify c query resp with
        | Ok () -> ()
        | Error r ->
          Alcotest.failf "custom domain rejected (%s): %s"
            (Format.asprintf "%a" Query.pp query)
            (Client.rejection_to_string r)
      done)
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

let test_custom_domain_2d () =
  let rng = Prng.create 72L in
  let records =
    List.init 6 (fun i ->
        Record.make ~id:i
          ~attrs:[| Q.of_int (Prng.int_in rng (-20) 20); Q.of_int (Prng.int_in rng (-20) 20) |]
          ())
  in
  let table =
    Table.make ~records
      ~template:(Template.linear_weights ~dims:2)
      ~domain:(Aqv_num.Domain.of_ints [ (-3, 2); (1, 6) ])
  in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table kp in
  let c =
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:kp.Signer.verify
  in
  let qrng = Prng.create 73L in
  for _ = 1 to 15 do
    let x = Workload.weight_point table qrng in
    let q = Query.top_k ~x ~k:3 in
    check Alcotest.bool "verifies" true (Client.accepts c q (Server.answer index q))
  done

(* ------------------------------- mesh ------------------------------- *)

let test_mesh_matches_ifmh () =
  let table = Workload.lines_1d ~n:20 (Prng.create 50L) in
  let kp = Lazy.force keypair in
  let mesh = Mesh.build table kp in
  let index = Ifmh.build ~scheme:Ifmh.One_signature table kp in
  let rng = Prng.create 51L in
  for _ = 1 to 40 do
    let query = random_query table rng in
    let mresp = Mesh.answer mesh query in
    let iresp = Server.answer index query in
    let same =
      List.length mresp.Mesh.result = List.length iresp.Server.result
      && List.for_all2 Record.equal mresp.Mesh.result iresp.Server.result
    in
    if not same then
      Alcotest.failf "mesh and ifmh disagree on %s" (Format.asprintf "%a" Query.pp query)
  done

let test_mesh_verify_honest () =
  let table = Workload.lines_1d ~n:15 (Prng.create 52L) in
  let kp = Lazy.force keypair in
  let mesh = Mesh.build table kp in
  let rng = Prng.create 53L in
  for _ = 1 to 40 do
    let query = random_query table rng in
    let resp = Mesh.answer mesh query in
    match
      Mesh.verify ~template:(Table.template table) ~domain:(Table.domain table)
        ~verify_signature:kp.Signer.verify query resp
    with
    | Ok () -> ()
    | Error r ->
      Alcotest.failf "mesh rejected honest %s: %s"
        (Format.asprintf "%a" Query.pp query)
        (Semantics.rejection_to_string r)
  done

let test_mesh_counts () =
  let table = Workload.lines_1d ~n:12 (Prng.create 54L) in
  let kp = Lazy.force keypair in
  let mesh = Mesh.build table kp in
  let sigs, cells = Mesh.count_signatures table in
  check Alcotest.int "dry-run signature count matches" (Mesh.signature_count mesh) sigs;
  check Alcotest.int "dry-run cell count matches" (Mesh.subdomain_count mesh) cells;
  (* mesh needs far more signatures than subdomains exist *)
  check Alcotest.bool "signatures >= cells" true (sigs >= cells)

(* ------------------------------ locate ------------------------------ *)

(* O(log S) binary-search point location must agree with the linear-scan
   reference everywhere — especially at exact facet points and the
   domain endpoints, where a tie must resolve to the same cell
   (half-open cells, the last right-closed). *)
let test_locate_binary_eq_scan () =
  let kp = Lazy.force keypair in
  List.iter
    (fun (n, seed) ->
      let table = Workload.lines_1d ~n (Prng.create seed) in
      let mesh = Mesh.build table kp in
      let bounds = Mesh.cell_bounds mesh in
      let ncells = Array.length bounds in
      let lo = fst bounds.(0) and hi = snd bounds.(ncells - 1) in
      let points = ref [] in
      (* every facet and both domain endpoints, exactly *)
      Array.iter (fun (l, h) -> points := l :: h :: !points) bounds;
      (* plus 500 random points across the domain *)
      let rng = Prng.create 61L in
      for _ = 1 to 500 do
        let num = Prng.int rng 100_001 in
        points := Q.add lo (Q.mul (Q.sub hi lo) (Q.of_ints num 100_000)) :: !points
      done;
      List.iter
        (fun x ->
          let b = Mesh.locate_cell mesh x in
          let s = Mesh_ref.locate_cell_scan mesh x in
          if b <> s then
            Alcotest.failf "n=%d: binary=%d scan=%d at x=%s" n b s (Q.to_string x);
          let l, h = bounds.(min b (ncells - 1)) in
          if Q.compare x l < 0 || (Q.compare x h > 0 && b < ncells - 1) then
            Alcotest.failf "n=%d: cell %d does not contain %s" n b (Q.to_string x))
        !points)
    [ (2, 62L); (7, 63L); (18, 64L) ]

let test_locate_outside_domain () =
  let kp = Lazy.force keypair in
  let table = Workload.lines_1d ~n:6 (Prng.create 65L) in
  let mesh = Mesh.build table kp in
  let bounds = Mesh.cell_bounds mesh in
  let lo = fst bounds.(0) and hi = snd bounds.(Array.length bounds - 1) in
  let left = Q.sub lo Q.one in
  let msg = Printf.sprintf "Mesh.locate_cell: point %s outside domain" (Q.to_string left) in
  Alcotest.check_raises "binary raises left of domain" (Invalid_argument msg) (fun () ->
      ignore (Mesh.locate_cell mesh left));
  Alcotest.check_raises "scan raises left of domain" (Invalid_argument msg) (fun () ->
      ignore (Mesh_ref.locate_cell_scan mesh left));
  (* right of the domain clamps to the last cell, as the scan does *)
  let right = Q.add hi Q.one in
  check Alcotest.int "clamps right of domain" (Mesh_ref.locate_cell_scan mesh right)
    (Mesh.locate_cell mesh right)

(* CI guard: location cost must grow sub-linearly in the subdomain
   count. With S growing >= 8x, a linear scan would pay ~that much more
   per query; binary search and the I-tree descent must stay within 3x.
   Deterministic: fixed seeds, fixed probe set, exact counters. *)
let test_locate_sublinear () =
  let kp = Lazy.force keypair in
  let measure n seed =
    let table = Workload.lines_1d ~n (Prng.create seed) in
    let mesh = Mesh.build table kp in
    let index = Ifmh.build ~scheme:Ifmh.Multi_signature table kp in
    let itree = Ifmh.itree index in
    let bounds = Mesh.cell_bounds mesh in
    let ncells = Array.length bounds in
    let lo = fst bounds.(0) and hi = snd bounds.(ncells - 1) in
    let probes = 64 in
    let point k = Q.add lo (Q.mul (Q.sub hi lo) (Q.of_ints ((2 * k) + 1) (2 * probes))) in
    Aqv_util.Metrics.reset ();
    for k = 0 to probes - 1 do
      ignore (Mesh.locate_cell mesh (point k))
    done;
    let mesh_tests = (Aqv_util.Metrics.snapshot ()).Aqv_util.Metrics.locate_sign_tests in
    Aqv_util.Metrics.reset ();
    for k = 0 to probes - 1 do
      ignore (Itree.locate itree [| point k |])
    done;
    let itree_tests = (Aqv_util.Metrics.snapshot ()).Aqv_util.Metrics.locate_sign_tests in
    (ncells, mesh_tests, itree_tests)
  in
  let s_small, mesh_small, itree_small = measure 12 66L in
  let s_big, mesh_big, itree_big = measure 36 67L in
  check Alcotest.bool "S grew >= 8x" true (s_big >= 8 * s_small);
  let ratio a b = float_of_int a /. float_of_int b in
  if ratio mesh_big mesh_small >= 3. then
    Alcotest.failf "mesh location cost not sub-linear: S=%d %d tests vs S=%d %d tests"
      s_big mesh_big s_small mesh_small;
  if ratio itree_big itree_small >= 3. then
    Alcotest.failf "itree location cost not sub-linear: S=%d %d tests vs S=%d %d tests"
      s_big itree_big s_small itree_small

let test_mesh_rejects_2d () =
  let table = Workload.scored ~n:4 ~dims:2 (Prng.create 55L) in
  Alcotest.check_raises "2d" (Invalid_argument "Mesh.build: 1-D tables only") (fun () ->
      ignore (Mesh.build table (Lazy.force keypair)))

(* ------------------------- pinned bytes ----------------------------- *)

(* Every byte the owner, server and client exchange, hashed into one
   SHA-256 and pinned: saved indexes, the bundle, encoded requests and
   replies, an [apply]'s saved result and its delta. Three small seeded
   tables (1-D lines, 2-D scored, and 1-D lines whose attributes sit at
   and past the machine-word bounds of the rational arithmetic) under
   both schemes. A codec or arithmetic change that moves any byte fails
   here. *)
let pinned_bytes_sha256 = "bda81398f88a28d6e0549e830bec64d8d368d50c3f0c0f9ace074808f7613c55"

let wide_table () =
  let big s = Q.of_decimal s in
  let line id a b = Record.make ~id ~attrs:[| a; b |] ~payload:(string_of_int id) () in
  let records =
    [
      line 0 (Q.of_ints ((1 lsl 40) + 3) 7) (Q.of_int (-(1 lsl 33)));
      line 1 (Q.of_int (-(1 lsl 31) - 1)) (Q.of_ints 5 ((1 lsl 31) + 1));
      line 2 (Q.of_ints ((1 lsl 30) + 1) ((1 lsl 30) - 1)) (Q.of_int max_int);
      line 3 (Q.of_int min_int) (big "123456789012345678901234567");
      line 4 (Q.of_ints 530 1009) (Q.of_ints (-546) 7);
      line 5 (big "-98765432109876543210") (Q.of_ints (1 lsl 62 - 1) 3);
      line 6 Q.zero (Q.of_ints (-(1 lsl 61)) ((1 lsl 31) - 1));
    ]
  in
  Table.make ~records ~template:Template.affine_1d ~domain:(Domain.of_ints [ (0, 1) ])

let test_pinned_bytes () =
  let kp = Lazy.force keypair in
  let w = Aqv_util.Wire.writer () in
  let emit f =
    let v = Aqv_util.Wire.writer () in
    f v;
    Aqv_util.Wire.bytes w (Aqv_util.Wire.contents v)
  in
  let tables =
    [
      Workload.lines_1d ~n:12 (Prng.create 401L);
      Workload.scored ~n:7 ~dims:2 (Prng.create 402L);
      wide_table ();
    ]
  in
  List.iter
    (fun table ->
      List.iter
        (fun scheme ->
          let index = Ifmh.build ~scheme table kp in
          emit (fun v -> Ifmh.save v index);
          emit (fun v -> Protocol.encode_bundle v (Protocol.bundle_of_index index kp.Signer.public));
          let rng = Prng.create 403L in
          for i = 0 to 11 do
            let query = random_query table rng in
            let x = Query.x query in
            let request =
              match i mod 4 with
              | 0 | 1 -> Protocol.Run_query query
              | 2 ->
                let r = Table.record table (Prng.int rng (Table.size table)) in
                Protocol.Run_rank { x; record_id = Record.id r }
              | _ ->
                let scores = Workload.scores_at table x in
                let a = snd scores.(Prng.int rng (Array.length scores)) in
                let b = snd scores.(Prng.int rng (Array.length scores)) in
                Protocol.Run_count { x; l = Q.min a b; u = Q.add (Q.max a b) (Q.of_ints 1 3) }
            in
            emit (fun v -> Protocol.encode_request v request);
            emit (fun v -> Protocol.encode_reply v (Protocol.handle index request))
          done;
          let records = Table.records table in
          let changes =
            [
              Update.Insert
                (Record.make ~id:900 ~attrs:[| Q.of_ints 17 3; Q.of_ints (-(1 lsl 35)) 11 |] ());
              Update.Delete (Record.id records.(1));
              Update.Modify
                (Record.make ~id:(Record.id records.(0)) ~attrs:[| Q.of_ints 2 1009; Q.of_int 40 |] ());
            ]
          in
          let updated = Ifmh.apply kp changes index in
          emit (fun v -> Ifmh.save v updated);
          emit (fun v -> Ifmh.encode_delta v (Ifmh.delta ~changes updated)))
        [ Ifmh.One_signature; Ifmh.Multi_signature ])
    tables;
  check Alcotest.string "sha256 of every exchanged byte" pinned_bytes_sha256
    (Aqv_util.Hex.encode (Aqv_crypto.Sha256.digest (Aqv_util.Wire.contents w)))

(* The signature mesh pinned the same way: its fingerprint (cells,
   orders, runs, signatures) under a fake signer that makes each
   signature a pure function of its digest, and the crypto-free dry
   run's counts, on a seeded 1-D table and a tie-heavy one (slopes and
   intercepts in a handful of integers, so crossings share boundaries).
   A change to the sweep or the run bookkeeping that moved both the
   build and the dry run at once fails here. *)
let test_pinned_mesh () =
  let kp = { (Lazy.force keypair) with Signer.sign = (fun d -> "sig:" ^ d) } in
  List.iter
    (fun (name, table, sha, sigs, cells) ->
      let mesh = Mesh.build table kp in
      check Alcotest.string (name ^ ": fingerprint") sha
        (Aqv_util.Hex.encode (Mesh.fingerprint mesh));
      check Alcotest.int (name ^ ": signatures") sigs (Mesh.signature_count mesh);
      check Alcotest.int (name ^ ": cells") cells (Mesh.subdomain_count mesh);
      check Alcotest.(pair int int) (name ^ ": dry run") (sigs, cells) (Mesh.count_signatures table))
    [
      ( "lines",
        Workload.lines_1d ~n:20 (Prng.create 9L),
        "bb1164cbc8242a569bff0d0bd8485ae420a9c27e6a4adebc56f4cc7ab54d8291",
        243,
        75 );
      ( "ties",
        Workload.lines_1d ~slope_range:3 ~intercept_range:3 ~n:24 (Prng.create 7L),
        "2aad0b6750dfdc077aa78e0f74eca7d198c359775e82dbd2ec66dcb6693a3d81",
        139,
        10 );
    ]

(* The server-cost counters of each [Server.answer], pinned: per query,
   [fmh_nodes.itree_nodes.locate_sign_tests] over a seeded mix of top-k,
   range and KNN queries on a 1-D and a 2-D table under both schemes.
   A change to how the server reaches the window (one walk instead of a
   descent per record) must tick the same totals. *)
let test_pinned_answer_counters () =
  let kp = Lazy.force keypair in
  let counters index query =
    let before = Aqv_util.Metrics.snapshot () in
    ignore (Server.answer index query);
    let d = Aqv_util.Metrics.diff (Aqv_util.Metrics.snapshot ()) before in
    Printf.sprintf "%d.%d.%d" d.fmh_nodes d.itree_nodes d.locate_sign_tests
  in
  List.iter
    (fun (name, table, scheme, expect) ->
      let index = Ifmh.build ~scheme table kp in
      let rng = Prng.create 404L in
      let got = List.init 12 (fun _ -> counters index (random_query table rng)) in
      check Alcotest.string name expect (String.concat " " got))
    [
      ( "1-D one-sig",
        Workload.lines_1d ~n:40 (Prng.create 405L),
        Ifmh.One_signature,
        "26.15.7 35.25.12 29.23.11 68.19.9 53.15.7 77.25.12 53.25.12 22.31.15 48.29.14 58.17.8 \
         93.19.9 35.31.15" );
      ( "1-D multi-sig",
        Workload.lines_1d ~n:40 (Prng.create 405L),
        Ifmh.Multi_signature,
        "26.8.7 35.13.12 29.12.11 68.10.9 53.8.7 77.13.12 53.13.12 22.16.15 48.15.14 58.9.8 93.10.9 \
         35.16.15" );
      ( "2-D one-sig",
        Workload.scored ~n:8 ~dims:2 (Prng.create 406L),
        Ifmh.One_signature,
        "26.11.5 8.13.6 18.11.5 21.11.5 9.13.6 8.5.2 19.13.6 25.11.5 15.11.5 8.9.4 10.13.6 15.11.5" );
      ( "2-D multi-sig",
        Workload.scored ~n:8 ~dims:2 (Prng.create 406L),
        Ifmh.Multi_signature,
        "26.6.5 8.7.6 18.6.5 21.6.5 9.7.6 8.3.2 19.7.6 25.6.5 15.6.5 8.5.4 10.7.6 15.6.5" );
    ]

let () =
  Alcotest.run "aqv_core"
    [
      ( "query",
        [
          Alcotest.test_case "top-k windows" `Quick test_window_topk;
          Alcotest.test_case "range windows" `Quick test_window_range;
          Alcotest.test_case "knn windows" `Quick test_window_knn;
          window_vs_bruteforce;
        ] );
      ("window law", [ window_law ]);
      ( "itree",
        [
          Alcotest.test_case "1d structure" `Quick test_itree_1d_structure;
          Alcotest.test_case "locate consistent" `Quick test_itree_locate_consistent;
          Alcotest.test_case "outside domain" `Quick test_itree_outside_domain;
          Alcotest.test_case "single function" `Quick test_itree_single_function;
          Alcotest.test_case "2d locate" `Quick test_itree_2d;
        ] );
      ( "sorting",
        [
          Alcotest.test_case "1d matches brute force" `Quick test_sorting_1d;
          test_sorting_1d_more;
          Alcotest.test_case "2d matches brute force" `Quick test_sorting_2d;
          Alcotest.test_case "3d matches brute force" `Quick test_sorting_3d;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "1d one-signature" `Quick test_e2e_1d_one_sig;
          Alcotest.test_case "1d multi-signature" `Quick test_e2e_1d_multi_sig;
          Alcotest.test_case "2d one-signature" `Quick test_e2e_2d_one_sig;
          Alcotest.test_case "3d multi-signature" `Quick test_e2e_3d_multi_sig;
          Alcotest.test_case "tiny table" `Quick test_e2e_tiny_table;
          Alcotest.test_case "single record" `Quick test_e2e_single_record;
          Alcotest.test_case "dsa signatures" `Quick test_e2e_dsa;
          Alcotest.test_case "vo size sublinear" `Quick test_vo_size_sublinear;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty range verifies" `Quick test_empty_range_verifies;
          Alcotest.test_case "boundary inputs" `Quick test_boundary_inputs;
          Alcotest.test_case "outside domain raises" `Quick test_answer_outside_domain;
          Alcotest.test_case "identical functions" `Quick test_identical_functions;
          Alcotest.test_case "shifted/negative domain" `Quick test_custom_domain_e2e;
          Alcotest.test_case "shifted 2d domain" `Quick test_custom_domain_2d;
        ] );
      ( "locate",
        [
          Alcotest.test_case "binary == scan incl. facets" `Quick test_locate_binary_eq_scan;
          Alcotest.test_case "outside domain" `Quick test_locate_outside_domain;
          Alcotest.test_case "sub-linear cost guard" `Quick test_locate_sublinear;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "matches ifmh" `Quick test_mesh_matches_ifmh;
          Alcotest.test_case "verifies honest" `Quick test_mesh_verify_honest;
          Alcotest.test_case "dry-run counts" `Quick test_mesh_counts;
          Alcotest.test_case "rejects 2d" `Quick test_mesh_rejects_2d;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "pinned sha256" `Quick test_pinned_bytes;
          Alcotest.test_case "pinned mesh sha256" `Quick test_pinned_mesh;
          Alcotest.test_case "pinned answer counters" `Quick test_pinned_answer_counters;
        ] );
    ]
