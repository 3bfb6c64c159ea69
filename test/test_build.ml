(* Crossing enumeration (the owner-side pair front-end): the
   antipodal-corner inversion sweep, sequential or pool-parallel, must
   be bit-identical to the sequential all-pairs reference
   [Crossings_ref.enumerate] in every dimension, the build counter must
   obey its exact law, and a full build must serialize identically
   across pool sizes and insertion orders, and to pinned bytes in
   d >= 2. CI runs this binary under AQV_DOMAINS=1 and =2 so the
   default pool exercises both code paths. *)

module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Region = Aqv_num.Region
module Halfspace = Aqv_num.Halfspace
module Domain = Aqv_num.Domain
module Prng = Aqv_util.Prng
module Metrics = Aqv_util.Metrics
module Wire = Aqv_util.Wire
module Pool = Aqv_par.Pool
module Signer = Aqv_crypto.Signer
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Crossings_ref = Aqv_ref.Crossings_ref
module Itree_ref = Aqv_ref.Itree_ref
module Core_ref = Aqv_ref.Core_ref
open Aqv

let check = Alcotest.check

(* [long_factor] multiplies [count] under QCHECK_LONG=1 *)
let qtest ?(count = 100) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

(* 4 explicit domains regardless of AQV_DOMAINS: the identity claim is
   about any pool size, not the machine's. *)
let par_pool = lazy (Pool.create ~domains:4 ())
let seq_pool = lazy (Pool.create ~domains:1 ())
let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 42L))

(* dense: crossings ~ 35% of pairs; sparse: well under 1%, so the
   crossings are a sliver of the pair space; tie-heavy: slopes and
   intercepts in a handful of integers, so parallel lines and equal
   values at an endpoint are common; 2-D and 3-D sweep 2 and 4
   antipodal corner pairs instead of the 1-D sweep's one *)
let table_dense n seed = Workload.lines_1d ~n (Prng.create (Int64.of_int (0xD0 + seed)))

let table_sparse n seed =
  Workload.lines_1d ~intercept_range:1_000_000 ~n (Prng.create (Int64.of_int (0x5A + seed)))

let table_ties ~slopes ~intercepts n seed =
  Workload.lines_1d ~slope_range:slopes ~intercept_range:intercepts ~n
    (Prng.create (Int64.of_int (0x71 + seed)))

let table_2d n seed = Workload.scored ~n ~dims:2 (Prng.create (Int64.of_int (0x2D + seed)))

let table_2d_ties n seed =
  Workload.scored ~attr_range:4 ~n ~dims:2 (Prng.create (Int64.of_int (0x7D + seed)))

let table_3d n seed = Workload.scored ~n ~dims:3 (Prng.create (Int64.of_int (0x3D + seed)))

let pair_equal (a : Crossings.pair) (b : Crossings.pair) =
  Aqv_ref.Num_ref.linfun_equal a.Crossings.diff b.Crossings.diff
  && Option.equal Q.equal a.Crossings.root b.Crossings.root

(* enumerated result == scan reference: same pairs in the same
   (lexicographic) order, equal records field by field, each one a
   crossing, and [total] = the crossing count *)
let same_as_scan name dom (got : Crossings.t) (scan : Crossings.t) =
  let box = Region.of_domain dom in
  check Alcotest.int (name ^ ": crossing count") (Crossings.count scan) (Crossings.count got);
  check Alcotest.int (name ^ ": total") (Crossings.count got) got.Crossings.total;
  Array.iteri
    (fun k (ps : Crossings.pair) ->
      let pg = got.Crossings.pairs.(k) in
      check
        Alcotest.(pair int int)
        (Printf.sprintf "%s: pair %d ids" name k)
        (ps.Crossings.i, ps.Crossings.j)
        (pg.Crossings.i, pg.Crossings.j);
      check Alcotest.bool (Printf.sprintf "%s: pair %d record" name k) true (pair_equal ps pg);
      check Alcotest.bool
        (Printf.sprintf "%s: pair %d is crossing" name k)
        true
        (Region.classify box pg.Crossings.diff = Region.Split))
    scan.Crossings.pairs;
  check
    Alcotest.(array (array int))
    (name ^ ": root groups") scan.Crossings.by_root got.Crossings.by_root

(* identity against the reference, sequentially and on the 4- and
   1-domain pools *)
let enum_identity dom fns =
  let scan = Crossings_ref.enumerate dom fns in
  List.iter
    (fun (name, pool) ->
      let pool = Option.map Lazy.force pool in
      same_as_scan name dom (Crossings.enumerate ?pool dom fns) scan)
    [ ("seq", None); ("pool", Some par_pool); ("pool-1", Some seq_pool) ];
  true

let enum_identity_prop mk (n, seed) =
  let t = mk n seed in
  enum_identity (Table.domain t) (Table.functions t)

let gen_1d = QCheck.(pair (int_range 2 40) (int_range 0 999))
let gen_2d = QCheck.(pair (int_range 2 14) (int_range 0 999))
let gen_3d = QCheck.(pair (int_range 2 10) (int_range 0 999))

(* n <= 28 <= (2 * slopes + 1) * (intercepts + 1), so the distinct
   lines always exist; the first function is appended again, so
   identical lines (a tie at both endpoints) are covered too *)
let gen_ties =
  QCheck.(pair (pair (int_range 2 28) (int_range 0 999)) (pair (int_range 3 20) (int_range 3 20)))

let ties_prop dom ((n, seed), (slopes, intercepts)) =
  let fns = Table.functions (table_ties ~slopes ~intercepts n seed) in
  enum_identity dom (Array.append fns [| fns.(0) |])

(* tie-heavy d-D functions over a non-unit integer box: coefficients
   and constants in [-3, 3], so equal values at a corner, hyperplanes
   through a corner or along a facet, and parallel differences are all
   common; the first function is appended again *)
let ties_box_prop dims (n, seed) =
  let rng = Prng.create (Int64.of_int (0xB0 + seed)) in
  let dom =
    Domain.of_ints
      (List.init dims (fun _ ->
           let lo = Prng.int_in rng (-3) 2 in
           (lo, lo + Prng.int_in rng 1 4)))
  in
  let fns =
    Array.init n (fun _ ->
        Linfun.of_ints (Array.init dims (fun _ -> Prng.int_in rng (-3) 3)) (Prng.int_in rng (-3) 3))
  in
  enum_identity dom (Array.append fns [| fns.(0) |])

let enum_identity_dense =
  qtest ~count:60 "sweep = scan (dense 1-D, any pool)" gen_1d (enum_identity_prop table_dense)

let enum_identity_sparse =
  qtest ~count:60 "sweep = scan (sparse 1-D, any pool)" gen_1d (enum_identity_prop table_sparse)

let enum_identity_ties =
  qtest ~count:100 "sweep = scan (tie-heavy 1-D, any pool)" gen_ties
    (ties_prop (Domain.of_ints [ (0, 1) ]))

let enum_identity_wide =
  qtest ~count:100 "sweep = scan (tie-heavy 1-D over (-3, 5))" gen_ties
    (ties_prop (Domain.of_ints [ (-3, 5) ]))

let enum_identity_2d =
  qtest ~count:25 "sweep = scan (2-D, any pool)" gen_2d (enum_identity_prop table_2d)

let enum_identity_3d =
  qtest ~count:25 "sweep = scan (3-D, any pool)" gen_3d (enum_identity_prop table_3d)

let enum_identity_ties_2d =
  qtest ~count:100 "sweep = scan (tie-heavy 2-D, non-unit box)" gen_2d (ties_box_prop 2)

let enum_identity_ties_3d =
  qtest ~count:40 "sweep = scan (tie-heavy 3-D, non-unit box)" gen_3d (ties_box_prop 3)

(* edge cases in 1-, 2- and 3-D: no function, one function, and
   several functions none of which cross — parallel, crossing only on
   the box's boundary, or all identical *)
let test_edge_cases () =
  let none name dom fns =
    let cr = Crossings.enumerate dom fns in
    same_as_scan name dom cr (Crossings_ref.enumerate dom fns);
    check Alcotest.int (name ^ ": no crossings") 0 (Crossings.count cr)
  in
  List.iter
    (fun dims ->
      let dom = Domain.of_ints (List.init dims (fun _ -> (-1, 2))) in
      let f c k = Linfun.of_ints (Array.init dims (fun d -> if d = 0 then k else 1)) c in
      let name s = Printf.sprintf "%d-D %s" dims s in
      none (name "empty") dom [||];
      none (name "one function") dom [| f 0 1 |];
      none (name "parallel") dom (Array.init 6 (fun c -> f c 1));
      (* x_0 and 2 x_0 + 1 (plus the same other terms) meet at
         x_0 = -1, on a facet *)
      none (name "boundary crossing") dom [| f 0 1; f 1 2 |];
      none (name "identical") dom (Array.make 4 (f 3 2)))
    [ 1; 2; 3 ]

(* The build counter is deterministic — one exact law in every
   dimension: build_crossings = count = the reference's count, the
   same ticks whether or not a pool fans the record building out, and
   the reference ticks nothing. *)
let counters_exact t =
  let dom = Table.domain t and fns = Table.functions t in
  let k = Crossings.count (Crossings_ref.enumerate dom fns) in
  Metrics.reset ();
  let cr = Crossings.enumerate dom fns in
  let s = Metrics.snapshot () in
  check Alcotest.int "crossings = scan" k (Crossings.count cr);
  check Alcotest.int "crossings counter" k s.Metrics.build_crossings;
  Metrics.reset ();
  ignore (Crossings.enumerate ~pool:(Lazy.force par_pool) dom fns);
  check Alcotest.int "pool: crossings counter" k (Metrics.snapshot ()).Metrics.build_crossings;
  Metrics.reset ();
  ignore (Crossings_ref.enumerate dom fns);
  check Alcotest.int "scan ticks no crossings" 0 (Metrics.snapshot ()).Metrics.build_crossings

let test_counters_exact () =
  counters_exact (table_dense 40 7);
  counters_exact (table_2d 14 7);
  counters_exact (table_3d 10 7)

(* Decomposition is insertion-order independent: the shuffled (default)
   and lexicographic insertion orders build different tree shapes but
   the same leaf decomposition — same intervals in the same left-to-
   right order, same intersection count. *)
let test_order_independence () =
  let t = table_dense 25 9 in
  let dom = Table.domain t and fns = Table.functions t in
  let a = Itree.build dom fns in
  let b = Itree.build ~order:`Lexicographic dom fns in
  check Alcotest.int "leaf count" (Itree.leaf_count a) (Itree.leaf_count b);
  check Alcotest.int "intersections" (Itree.intersection_count a) (Itree.intersection_count b);
  for id = 0 to Itree.leaf_count a - 1 do
    let la, ha = Core_ref.leaf_interval a id and lb, hb = Core_ref.leaf_interval b id in
    check Alcotest.bool (Printf.sprintf "leaf %d interval" id) true
      (Q.equal la lb && Q.equal ha hb)
  done

(* The 1-D tree law: [Itree.build] — the treap of the sorted crossing
   roots — is the tree sequential insertion grows ([Itree_ref]), node
   for node: the same pair at every internal node with the same child
   above, the same region (constraints and interval) everywhere, the
   same leaf ids and constraint lists, and the same counts and depths.
   Dense, sparse and tie-heavy tables (many pairs per root, an
   identical line appended), under several seeds and under the
   lexicographic order. *)
let same_tree name (got : Itree.t) (want : Itree_ref.t) =
  let fail what = Alcotest.failf "%s: %s" name what in
  let bounds (nd : Itree.node) = Region.interval_bounds nd.Itree.region in
  let rec walk path (a : Itree.node) (b : Itree.node) =
    let ca = Region.constraints a.Itree.region and cb = Region.constraints b.Itree.region in
    if
      not
        (List.equal
           (fun (x : Halfspace.t) (y : Halfspace.t) ->
             x.Halfspace.side = y.Halfspace.side
             && Aqv_ref.Num_ref.linfun_equal x.Halfspace.diff y.Halfspace.diff)
           ca cb)
    then fail (path ^ " constraints");
    (match (bounds a, bounds b) with
    | Some (la, ha), Some (lb, hb) when Q.equal la lb && Q.equal ha hb -> ()
    | _ -> fail (path ^ " interval"));
    match (a.Itree.kind, b.Itree.kind) with
    | Itree.Leaf la, Itree.Leaf lb ->
      if la.Itree.id <> lb.Itree.id then fail (path ^ " leaf id");
      if la.Itree.cons <> lb.Itree.cons then fail (path ^ " cons")
    | Itree.Inode na, Itree.Inode nb ->
      if (na.Itree.i, na.Itree.j) <> (nb.Itree.i, nb.Itree.j) then fail (path ^ " pair");
      walk (path ^ "a") na.Itree.above nb.Itree.above;
      walk (path ^ "b") na.Itree.below nb.Itree.below
    | _ -> fail (path ^ " leaf/inode")
  in
  walk "root." (Itree.root got) want.Itree_ref.root;
  check Alcotest.int (name ^ ": leaf count") (Array.length want.Itree_ref.leaves) (Itree.leaf_count got);
  let leaf (nd : Itree.node) =
    match nd.Itree.kind with
    | Itree.Leaf lf -> (lf.Itree.id, lf.Itree.cons)
    | Itree.Inode _ -> fail "inode among the leaves"
  in
  Array.iteri
    (fun id nd ->
      let gid, gcons = leaf (Itree.leaves got).(id) and _, wcons = leaf nd in
      if gid <> id || gcons <> wcons then fail (Printf.sprintf "leaf %d" id))
    want.Itree_ref.leaves;
  check Alcotest.int (name ^ ": nodes") want.Itree_ref.nodes (Itree.node_count got);
  check Alcotest.int (name ^ ": intersections") want.Itree_ref.intersections
    (Itree.intersection_count got);
  check Alcotest.int (name ^ ": max depth") (Itree_ref.max_depth want) (Itree.max_depth got);
  check (Alcotest.float 0.) (name ^ ": average leaf depth") (Itree_ref.average_leaf_depth want)
    (Itree.average_leaf_depth got)

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let hex = Aqv_util.Hex.encode

(* End to end: the streamed front-end feeds the whole owner pipeline,
   so a full build must serialize byte-identically across pool sizes —
   scheme x dimension, on the shapes the ablation sweeps. *)
let test_full_build_identity () =
  List.iter
    (fun (sname, scheme) ->
      List.iter
        (fun (tname, table) ->
          let seq =
            Ifmh.build ~pool:(Lazy.force seq_pool) ~scheme table (Lazy.force keypair)
          in
          let par =
            Ifmh.build ~pool:(Lazy.force par_pool) ~scheme table (Lazy.force keypair)
          in
          check Alcotest.string
            (Printf.sprintf "%s/%s: save bytes" sname tname)
            (hex (save_bytes seq)) (hex (save_bytes par)))
        [
          ("dense-1d", table_dense 18 1);
          ("sparse-1d", table_sparse 18 1);
          ("2d", table_2d 10 1);
        ])
    [ ("one", Ifmh.One_signature); ("multi", Ifmh.Multi_signature) ]

(* d >= 2 byte identity against fixed constants, not just seq == par:
   the SHA-256 of [Ifmh.save] for seeded 2-D (one of them tie-heavy)
   and 3-D tables under both schemes. Any change to which pairs cross,
   their order, the insertion shuffle or the serialization shows
   here. *)
let test_pinned_dims () =
  let sha s = hex (Aqv_crypto.Sha256.digest s) in
  List.iter
    (fun (name, table, scheme, expect) ->
      let index = Ifmh.build ~scheme table (Lazy.force keypair) in
      check Alcotest.string name expect (sha (save_bytes index)))
    [
      ("2d/one", table_2d 12 3, Ifmh.One_signature,
        "e0851b5bddb25d25263772324d9c75fd04b53ad67f9ec6c36509f6b674c0f0cc" );
      ("2d/multi", table_2d 12 3, Ifmh.Multi_signature,
        "ab4ebd3db86118df3e452b70cbfe5703c52e1194a82baf1112af8d1c22ac31a6" );
      ("2d-ties/one", table_2d_ties 10 3, Ifmh.One_signature,
        "76dc0000dffbbd1b4642c1db6bf23a7a40914a546cd86d049aa7e42407318726" );
      ("2d-ties/multi", table_2d_ties 10 3, Ifmh.Multi_signature,
        "f758d004ee7542647862b9728bb54e48cf3e2770c632c34d8022071c4329fc8f" );
      ("3d/one", table_3d 8 3, Ifmh.One_signature,
        "ca9c3502b4e2fac3c46497ab52301a1f04360ae0cac96f0bf7863d4b80c682d3" );
      ("3d/multi", table_3d 8 3, Ifmh.Multi_signature,
        "52afa2906e31509de143f79c42308ec6ca6eb8094b9a8a1bb0bd1e8575ef8455" );
    ]

(* The one 1-D sweep's contract, checked cell by cell against a
   from-scratch sort: each cell's order is the sort at the cell's
   midpoint (ties by position), [moved] is exactly the set of positions
   whose record differs from the previous cell's, and the cells are the
   I-tree's leaves, same count and same intervals. The tie-heavy table
   gets a copy of its first line, so identical functions sit in every
   order. *)
let sweep_contract table =
  let dom = Table.domain table and fns = Table.functions table in
  let n = Array.length fns in
  let itree = Itree.build dom fns in
  let prev = ref None in
  let on_cell c ~lob ~hib order ~moved =
    let la, ha = Core_ref.leaf_interval itree c in
    check Alcotest.bool (Printf.sprintf "cell %d interval" c) true (Q.equal la lob && Q.equal ha hib);
    let mid = [| Q.average lob hib |] in
    let expect = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Q.compare (Linfun.eval fns.(a) mid) (Linfun.eval fns.(b) mid)) expect;
    let order = Array.copy order in
    check Alcotest.(array int) (Printf.sprintf "cell %d order" c) expect order;
    let differ =
      match !prev with
      | None -> []
      | Some p -> List.filter (fun k -> p.(k) <> order.(k)) (List.init n Fun.id)
    in
    check Alcotest.(list int) (Printf.sprintf "cell %d moved" c) differ moved;
    prev := Some order
  in
  let ncells = Sorting.sweep_1d (Crossings.enumerate dom fns) table on_cell in
  check Alcotest.int "cells = I-tree leaves" (Itree.leaf_count itree) ncells;
  true

let with_duplicate_line table =
  let records = Array.to_list (Table.records table) in
  let attrs = Aqv_ref.Db_ref.record_attrs (List.hd records) in
  let copy = Aqv_db.Record.make ~id:1_000_000 ~attrs () in
  Table.make ~records:(records @ [ copy ]) ~template:(Table.template table)
    ~domain:(Table.domain table)

let sweep_contract_1d =
  qtest ~count:40 ~long_factor:20 "sweep_1d contract (1-D shapes)" gen_1d (fun (n, seed) ->
      sweep_contract (table_dense n seed)
      && sweep_contract (table_sparse n seed)
      && sweep_contract (with_duplicate_line (table_ties ~slopes:3 ~intercepts:4 (min n 28) seed)))

(* the default seed, two drawn ones and the lexicographic order *)
let tree_law seed table =
  let dom = Table.domain table and fns = Table.functions table in
  List.iter
    (fun (name, seed, order) ->
      same_tree name (Itree.build ?seed ~order dom fns) (Itree_ref.build ?seed ~order dom fns))
    [
      ("default seed", None, `Shuffled);
      (Printf.sprintf "seed %d" seed, Some (Int64.of_int seed), `Shuffled);
      (Printf.sprintf "seed %d" (seed + 1), Some (Int64.of_int (seed + 1)), `Shuffled);
      ("lexicographic", None, `Lexicographic);
    ];
  true

let gen_tree_seed = QCheck.int_range 0 1_000_000

let tree_law_dense =
  qtest ~count:30 ~long_factor:20 "1-D tree = sequential insertion (dense)"
    QCheck.(pair gen_1d gen_tree_seed)
    (fun ((n, seed), s) -> tree_law s (table_dense n seed))

let tree_law_sparse =
  qtest ~count:30 ~long_factor:20 "1-D tree = sequential insertion (sparse)"
    QCheck.(pair gen_1d gen_tree_seed)
    (fun ((n, seed), s) -> tree_law s (table_sparse n seed))

let tree_law_ties =
  qtest ~count:30 ~long_factor:20 "1-D tree = sequential insertion (tie-heavy)"
    QCheck.(pair gen_ties gen_tree_seed)
    (fun (((n, seed), (slopes, intercepts)), s) ->
      tree_law s (with_duplicate_line (table_ties ~slopes ~intercepts n seed)))

let () =
  Alcotest.run "aqv_build"
    [
      ( "enumeration",
        [
          enum_identity_dense;
          enum_identity_sparse;
          enum_identity_ties;
          enum_identity_wide;
          enum_identity_2d;
          enum_identity_3d;
          enum_identity_ties_2d;
          enum_identity_ties_3d;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
        ] );
      ( "counters",
        [
          Alcotest.test_case "exact build counters" `Quick test_counters_exact;
        ] );
      ( "structure",
        [
          Alcotest.test_case "insertion-order independence" `Quick test_order_independence;
          Alcotest.test_case "full build identity across pools" `Quick test_full_build_identity;
          Alcotest.test_case "pinned sha256 (2-D, 3-D)" `Quick test_pinned_dims;
          sweep_contract_1d;
        ] );
      ("tree law", [ tree_law_dense; tree_law_sparse; tree_law_ties ]);
    ]
