(* Tests for the persistent Merkle tree: shape determinism, proofs,
   persistence of set/swap, and range-proof reconstruction, all
   cross-checked against a naive reference implementation. *)

module Mht = Aqv_merkle.Mht
module Sha256 = Aqv_crypto.Sha256

let check = Alcotest.check

(* [long_factor] multiplies [count] under QCHECK_LONG=1 *)
let qtest ?(count = 300) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

let d i = Sha256.digest (Printf.sprintf "leaf-%d" i)
let of_digests leaves = Mht.init (Array.length leaves) (fun i -> (leaves.(i), i))
let mk n = of_digests (Array.init n d)

(* Naive reference: recompute the root from a full leaf array using the
   same split rule (largest power of two below n). *)
let reference_root leaves =
  let rec split_point n =
    let rec go p = if p * 2 < n then go (p * 2) else p in
    go 1
  and build lo n =
    if n = 1 then leaves.(lo)
    else begin
      let p = split_point n in
      Sha256.digest_list [ "\x03"; build lo p; build (lo + p) (n - p) ]
    end
  in
  build 0 (Array.length leaves)

let test_matches_reference () =
  for n = 1 to 40 do
    let leaves = Array.init n d in
    let t = of_digests leaves in
    if not (String.equal (Mht.root t) (reference_root leaves)) then
      Alcotest.failf "root mismatch at n=%d" n
  done

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Mht.init: empty") (fun () ->
      ignore (of_digests [||]))

let test_leaves_roundtrip () =
  let leaves = Array.init 13 d in
  let t = of_digests leaves in
  check Alcotest.(array string) "leaves" leaves (Array.init 13 (Mht.leaf t));
  for i = 0 to 12 do
    check Alcotest.string "leaf i" leaves.(i) (Mht.leaf t i)
  done

let test_set_persistent () =
  let t = mk 10 in
  let t' = Mht.set_many t [ (4, d 99, 99) ] in
  check Alcotest.string "old unchanged" (d 4) (Mht.leaf t 4);
  check Alcotest.string "new changed" (d 99) (Mht.leaf t' 4);
  check Alcotest.bool "roots differ" false (String.equal (Mht.root t) (Mht.root t'));
  (* the new root equals a fresh build of the same leaves *)
  let fresh = Array.init 10 d in
  fresh.(4) <- d 99;
  check Alcotest.string "matches rebuild" (reference_root fresh) (Mht.root t')

let test_auth_path_all_positions () =
  for n = 1 to 33 do
    let t = mk n in
    for i = 0 to n - 1 do
      let path = Mht.auth_path t i in
      let r = Mht.root_of_path ~leaf:(Mht.leaf t i) ~path in
      if not (String.equal r (Mht.root t)) then Alcotest.failf "path fails n=%d i=%d" n i
    done
  done

let test_auth_path_rejects_wrong_leaf () =
  let t = mk 16 in
  let path = Mht.auth_path t 5 in
  let r = Mht.root_of_path ~leaf:(d 6) ~path in
  check Alcotest.bool "detects wrong leaf" false (String.equal r (Mht.root t))

let test_range_proof_all_ranges () =
  for n = 1 to 24 do
    let t = mk n in
    for lo = 0 to n - 1 do
      for hi = lo to n - 1 do
        let proof = Mht.range_proof t ~lo ~hi in
        let leaves = List.init (hi - lo + 1) (fun k -> Mht.leaf t (lo + k)) in
        match Mht.root_of_range ~node_hash:Mht.node_hash ~n ~lo ~leaves ~proof with
        | Some r when String.equal r (Mht.root t) -> ()
        | Some _ -> Alcotest.failf "range root mismatch n=%d [%d,%d]" n lo hi
        | None -> Alcotest.failf "range shape rejected n=%d [%d,%d]" n lo hi
      done
    done
  done

let test_range_proof_detects_tamper () =
  let t = mk 16 in
  let proof = Mht.range_proof t ~lo:4 ~hi:9 in
  (* replace one in-range leaf *)
  let leaves = List.init 6 (fun k -> if k = 2 then d 77 else Mht.leaf t (4 + k)) in
  (match Mht.root_of_range ~node_hash:Mht.node_hash ~n:16 ~lo:4 ~leaves ~proof with
  | Some r -> check Alcotest.bool "root differs" false (String.equal r (Mht.root t))
  | None -> ());
  (* drop a leaf: shape becomes inconsistent or root changes *)
  let dropped = List.init 5 (fun k -> Mht.leaf t (4 + k)) in
  match Mht.root_of_range ~node_hash:Mht.node_hash ~n:16 ~lo:4 ~leaves:dropped ~proof with
  | Some r -> check Alcotest.bool "dropped leaf detected" false (String.equal r (Mht.root t))
  | None -> ()

let test_range_proof_wrong_n () =
  let t = mk 16 in
  let proof = Mht.range_proof t ~lo:4 ~hi:9 in
  let leaves = List.init 6 (fun k -> Mht.leaf t (4 + k)) in
  match Mht.root_of_range ~node_hash:Mht.node_hash ~n:17 ~lo:4 ~leaves ~proof with
  | Some r -> check Alcotest.bool "wrong n detected" false (String.equal r (Mht.root t))
  | None -> ()

let test_index_of_path () =
  for n = 1 to 40 do
    let t = mk n in
    for i = 0 to n - 1 do
      match Mht.index_of_path ~n ~path:(Mht.auth_path t i) with
      | Some j when j = i -> ()
      | Some j -> Alcotest.failf "n=%d: path of %d decodes to %d" n i j
      | None -> Alcotest.failf "n=%d i=%d: inconsistent shape" n i
    done
  done

let test_index_of_path_wrong_n () =
  let t = mk 16 in
  let path = Mht.auth_path t 5 in
  (* a 16-leaf path is too short/long for most other sizes *)
  check Alcotest.bool "rejects bad n" true (Mht.index_of_path ~n:3 ~path = None)

let prop_set_then_leaves =
  qtest "set agrees with leaves array"
    QCheck.(pair (int_range 1 50) (pair (int_bound 49) small_nat))
    (fun (n, (i, v)) ->
      let i = i mod n in
      let t = Mht.set_many (mk n) [ (i, d (1000 + v), v) ] in
      let expect = Array.init n d in
      expect.(i) <- d (1000 + v);
      Array.init n (Mht.leaf t) = expect)

(* Interior nodes with at least one changed leaf below them: the node
   hashes one [set_many] descent must pay, from the shape alone. *)
let union_path_nodes n idxs =
  let rec split_point n =
    let rec go p = if p * 2 < n then go (p * 2) else p in
    go 1
  and go lo size =
    if size = 1 || not (List.exists (fun i -> lo <= i && i < lo + size) idxs) then 0
    else begin
      let p = split_point size in
      1 + go lo p + go (lo + p) (size - p)
    end
  in
  go 0 n

(* Change sets of every shape the sweep issues: empty, one adjacent
   swap, both ends, and arbitrary sorted subsets. *)
let gen_change_set =
  QCheck.Gen.(
    int_range 1 300 >>= fun n ->
    int_bound 3 >>= fun kind ->
    (match kind with
    | 0 -> return []
    | 1 when n >= 2 -> map (fun i -> [ i; i + 1 ]) (int_bound (n - 2))
    | 2 -> return (List.sort_uniq compare [ 0; n - 1 ])
    | _ -> map (List.sort_uniq compare) (list_size (int_range 1 12) (int_bound (n - 1))))
    >>= fun idxs ->
    map (fun v -> (n, List.map (fun i -> (i, d (5000 + i + v), i + v)) idxs)) small_nat)

let prop_set_many_is_fold_of_set =
  qtest ~count:300 "set_many = fold of set"
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "n=%d [%s]" n
           (String.concat ";" (List.map (fun (i, _, _) -> string_of_int i) cs)))
       gen_change_set)
    (fun (n, changes) ->
      let t = mk n in
      let folded = List.fold_left (fun t c -> Mht.set_many t [ c ]) t changes in
      let before = Aqv_util.Metrics.snapshot () in
      let many = Mht.set_many t changes in
      let hashes = (Aqv_util.Metrics.diff (Aqv_util.Metrics.snapshot ()) before).hash_ops in
      String.equal (Mht.root folded) (Mht.root many)
      && Array.init n (Mht.leaf folded) = Array.init n (Mht.leaf many)
      && List.for_all
           (fun i -> Mht.auth_path folded i = Mht.auth_path many i)
           (List.init n Fun.id)
      && hashes = union_path_nodes n (List.map (fun (i, _, _) -> i) changes))

(* Leaf values ride the tree: after any sequence of change sets,
   [value], [leaf] and [map_range] over every [lo..hi] read the model
   array the same changes were written to, and the root is a fresh
   build's of that array. *)
let gen_change_sequence =
  QCheck.Gen.(
    int_range 1 70 >>= fun n ->
    let change_set =
      list_size (int_bound 6) (pair (int_bound (n - 1)) small_nat) >|= fun cs ->
      List.sort_uniq (fun (i, _) (j, _) -> compare i j) cs
      |> List.map (fun (i, v) -> (i, d (7000 + v), v))
    in
    pair (return n) (list_size (int_bound 8) change_set))

let prop_values_follow_model =
  qtest ~count:100 ~long_factor:20 "set_many sequences = model array"
    (QCheck.make
       ~print:(fun (n, steps) -> Printf.sprintf "n=%d, %d change sets" n (List.length steps))
       gen_change_sequence)
    (fun (n, steps) ->
      let model = Array.init n (fun i -> (d i, i)) in
      let t =
        List.fold_left
          (fun t changes ->
            List.iter (fun (i, h, v) -> model.(i) <- (h, v)) changes;
            Mht.set_many t changes)
          (mk n) steps
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Mht.value t i <> snd model.(i) || not (String.equal (Mht.leaf t i) (fst model.(i)))
        then ok := false
      done;
      for lo = 0 to n do
        for hi = lo - 1 to n - 1 do
          let expect = List.init (hi - lo + 1) (fun k -> snd model.(lo + k) * 3) in
          if Mht.map_range t ~lo ~hi (fun v -> v * 3) <> expect then ok := false
        done
      done;
      let refused lo hi =
        match Mht.map_range t ~lo ~hi Fun.id with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      !ok
      && refused (-1) 0
      && refused 0 n
      && Mht.map_range t ~lo:n ~hi:(n - 1) Fun.id = []
      && String.equal (Mht.root t) (Mht.root (Mht.init n (fun i -> model.(i)))))

let test_set_many_rejects () =
  let t = mk 9 in
  let rejects name changes =
    match Mht.set_many t changes with
    | (_ : int Mht.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative" [ (-1, d 1, 1) ];
  rejects "past the end" [ (3, d 1, 1); (9, d 2, 2) ];
  rejects "duplicate" [ (4, d 1, 1); (4, d 2, 2) ];
  rejects "unsorted" [ (5, d 1, 1); (2, d 2, 2) ];
  (* an adjacent swap rehashes the union of two root paths once: 4
     hashes for siblings in a 16-leaf tree, 7 when the paths meet only
     at the root — two separate sets paid 8 either way *)
  let t = mk 16 in
  List.iter
    (fun (i, expect) ->
      let before = Aqv_util.Metrics.snapshot () in
      ignore (Mht.set_many t [ (i, Mht.leaf t (i + 1), i + 1); (i + 1, Mht.leaf t i, i) ]);
      check Alcotest.int (Printf.sprintf "swap %d/%d of 16" i (i + 1)) expect
        (Aqv_util.Metrics.diff (Aqv_util.Metrics.snapshot ()) before).hash_ops)
    [ (6, 4); (7, 7) ]

let prop_range_proof_size_logarithmic =
  qtest ~count:100 "range proof size is O(log n)"
    QCheck.(pair (int_range 2 512) (int_bound 511))
    (fun (n, lo) ->
      let lo = lo mod n in
      let t = mk n in
      let proof = Mht.range_proof t ~lo ~hi:lo in
      (* a single-leaf range proof is at most ~2 log2 n digests *)
      let bound = 2 * (1 + int_of_float (Float.log2 (float_of_int n))) in
      List.length proof <= bound)

let () =
  Alcotest.run "aqv_merkle"
    [
      ( "shape",
        [
          Alcotest.test_case "matches reference" `Quick test_matches_reference;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "leaves roundtrip" `Quick test_leaves_roundtrip;
        ] );
      ( "updates",
        [
          Alcotest.test_case "set persistent" `Quick test_set_persistent;
          prop_set_then_leaves;
          prop_set_many_is_fold_of_set;
          prop_values_follow_model;
          Alcotest.test_case "set_many rejects bad indices" `Quick test_set_many_rejects;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "auth path (all n, i)" `Quick test_auth_path_all_positions;
          Alcotest.test_case "wrong leaf rejected" `Quick test_auth_path_rejects_wrong_leaf;
          Alcotest.test_case "range proofs (exhaustive small)" `Quick test_range_proof_all_ranges;
          Alcotest.test_case "range tamper detected" `Quick test_range_proof_detects_tamper;
          Alcotest.test_case "wrong n" `Quick test_range_proof_wrong_n;
          Alcotest.test_case "index of path" `Quick test_index_of_path;
          Alcotest.test_case "index of path, wrong n" `Quick test_index_of_path_wrong_n;
          prop_range_proof_size_logarithmic;
        ] );
    ]
