(* Crossing enumeration (the owner-side pair front-end): the 1-D
   inversion sweep and the chunked, pool-parallel d >= 2 probe must both
   be bit-identical to the sequential all-pairs reference
   [Crossings_ref.enumerate], the build counters must obey their exact
   per-dimension laws, and a full build must serialize identically
   across pool sizes and insertion orders. CI runs this binary under
   AQV_DOMAINS=1 and =2 so the default pool exercises both code
   paths. *)

module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
module Prng = Aqv_util.Prng
module Metrics = Aqv_util.Metrics
module Wire = Aqv_util.Wire
module Pool = Aqv_par.Pool
module Signer = Aqv_crypto.Signer
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Crossings_ref = Aqv_ref.Crossings_ref
open Aqv

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* 4 explicit domains regardless of AQV_DOMAINS: the identity claim is
   about any pool size, not the machine's. *)
let par_pool = lazy (Pool.create ~domains:4 ())
let seq_pool = lazy (Pool.create ~domains:1 ())
let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 42L))

(* dense: crossings ~ 35% of pairs; sparse: well under 1%, so the
   crossings are a sliver of the pair space; tie-heavy: slopes and
   intercepts in a handful of integers, so parallel lines and equal
   values at an endpoint are common; 2-D goes through the chunked
   [Crossings.probe] instead of the 1-D inversion sweep *)
let table_dense n seed = Workload.lines_1d ~n (Prng.create (Int64.of_int (0xD0 + seed)))

let table_sparse n seed =
  Workload.lines_1d ~intercept_range:1_000_000 ~n (Prng.create (Int64.of_int (0x5A + seed)))

let table_ties ~slopes ~intercepts n seed =
  Workload.lines_1d ~slope_range:slopes ~intercept_range:intercepts ~n
    (Prng.create (Int64.of_int (0x71 + seed)))

let table_2d n seed = Workload.scored ~n ~dims:2 (Prng.create (Int64.of_int (0x2D + seed)))

let pair_equal (a : Crossings.pair) (b : Crossings.pair) =
  Linfun.equal a.Crossings.diff b.Crossings.diff
  && Option.equal Q.equal a.Crossings.root b.Crossings.root

(* enumerated result == scan reference: same pairs in the same
   (lexicographic) order, equal records field by field, the
   per-dimension total and chunk laws (1-D: total = crossings, no
   chunks; d >= 2: total = n(n-1)/2 in ceil(total/chunk) chunks) — and
   the high-water mark obeys its O(crossings + chunk) bound *)
let same_as_scan name dom (got : Crossings.t) (scan : Crossings.t) =
  let dim = Domain.dim dom in
  let box = Region.of_domain dom in
  let total, chunks =
    if dim = 1 then (Crossings.count scan, 0)
    else
      let t = scan.Crossings.total in
      (t, (t + got.Crossings.chunk - 1) / got.Crossings.chunk)
  in
  check Alcotest.int (name ^ ": total") total got.Crossings.total;
  check Alcotest.int (name ^ ": chunks") chunks got.Crossings.chunks;
  check Alcotest.int (name ^ ": crossing count") (Crossings.count scan) (Crossings.count got);
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
  check Alcotest.bool (name ^ ": peak bound") true
    (got.Crossings.peak_live <= Crossings.count got + got.Crossings.chunk)

(* identity against the reference, sequentially and on the 4- and
   1-domain pools *)
let enum_identity dom fns chunk =
  let scan = Crossings_ref.enumerate dom fns in
  List.iter
    (fun (name, pool) ->
      let pool = Option.map Lazy.force pool in
      same_as_scan name dom (Crossings.enumerate ~chunk ?pool dom fns) scan)
    [ ("seq", None); ("pool", Some par_pool); ("pool-1", Some seq_pool) ];
  true

let enum_identity_prop mk (n, seed, chunk) =
  let t = mk n seed in
  enum_identity (Table.domain t) (Table.functions t) chunk

let gen_1d = QCheck.(triple (int_range 2 40) (int_range 0 999) (int_range 1 900))
let gen_2d = QCheck.(triple (int_range 2 14) (int_range 0 999) (int_range 1 120))

(* n <= 28 <= (2 * slopes + 1) * (intercepts + 1), so the distinct
   lines always exist; the first function is appended again, so
   identical lines (a tie at both endpoints) are covered too *)
let gen_ties =
  QCheck.(
    pair
      (triple (int_range 2 28) (int_range 0 999) (int_range 1 900))
      (pair (int_range 3 20) (int_range 3 20)))

let ties_prop dom ((n, seed, chunk), (slopes, intercepts)) =
  let fns = Table.functions (table_ties ~slopes ~intercepts n seed) in
  enum_identity dom (Array.append fns [| fns.(0) |]) chunk

let enum_identity_dense =
  qtest ~count:60 "streaming = scan (dense 1-D, any chunk, any pool)" gen_1d
    (enum_identity_prop table_dense)

let enum_identity_sparse =
  qtest ~count:60 "streaming = scan (sparse 1-D, any chunk, any pool)" gen_1d
    (enum_identity_prop table_sparse)

let enum_identity_ties =
  qtest ~count:100 "sweep = scan (tie-heavy 1-D, any pool)" gen_ties
    (ties_prop (Domain.of_ints [ (0, 1) ]))

let enum_identity_wide =
  qtest ~count:100 "sweep = scan (tie-heavy 1-D over (-3, 5))" gen_ties
    (ties_prop (Domain.of_ints [ (-3, 5) ]))

let enum_identity_2d =
  qtest ~count:25 "streaming = scan (2-D, any chunk, any pool)" gen_2d
    (enum_identity_prop table_2d)

(* chunk edges: a 1-pair chunk and a chunk bigger than the pair space,
   for the chunked 2-D probe and the chunk-free 1-D sweep; [chunk = 0]
   refused either way; the degenerate single-function table (zero
   pairs, zero chunks) *)
let test_chunk_edges () =
  List.iter
    (fun t ->
      let dom = Table.domain t and fns = Table.functions t in
      let scan = Crossings_ref.enumerate dom fns in
      same_as_scan "chunk=1" dom (Crossings.enumerate ~chunk:1 dom fns) scan;
      same_as_scan "chunk>total" dom (Crossings.enumerate ~chunk:10_000 dom fns) scan;
      Alcotest.check_raises "chunk=0 refused"
        (Invalid_argument "Crossings.enumerate: chunk must be >= 1") (fun () ->
          ignore (Crossings.enumerate ~chunk:0 dom fns));
      let cr = Crossings.enumerate ~chunk:7 dom [| fns.(0) |] in
      check Alcotest.int "single fn: total" 0 cr.Crossings.total;
      check Alcotest.int "single fn: crossings" 0 (Crossings.count cr);
      check Alcotest.int "single fn: chunks" 0 cr.Crossings.chunks)
    [ table_dense 12 0; table_2d 8 0 ]

(* The build counters are deterministic — exact values, with the
   per-dimension laws. 1-D: classified = crossings = the scan's count,
   no chunks, peak = crossings. d >= 2: classified = n(n-1)/2,
   chunks = ceil(total/chunk), peak <= crossings + chunk. Identical
   ticks whether or not a pool fans the work out — and the reference
   ticks none of them. *)
let counters_exact t ~chunk =
  let dom = Table.domain t and fns = Table.functions t in
  let n = Array.length fns in
  let total = n * (n - 1) / 2 in
  let scan = Crossings_ref.enumerate dom fns in
  let k = Crossings.count scan in
  Metrics.reset ();
  let cr = Crossings.enumerate ~chunk dom fns in
  let s = Metrics.snapshot () in
  check Alcotest.int "crossings = scan" k (Crossings.count cr);
  check Alcotest.int "crossings counter" k s.Metrics.build_crossings;
  if Domain.dim dom = 1 then begin
    check Alcotest.int "1-D: classified = crossings" k s.Metrics.build_pairs_classified;
    check Alcotest.int "1-D: no chunks" 0 s.Metrics.build_pair_chunks;
    check Alcotest.int "1-D: peak = crossings" k s.Metrics.build_peak_pairs
  end
  else begin
    check Alcotest.int "classified = n(n-1)/2" total s.Metrics.build_pairs_classified;
    check Alcotest.int "chunks = ceil(total/chunk)"
      ((total + chunk - 1) / chunk)
      s.Metrics.build_pair_chunks;
    check Alcotest.bool "peak >= first chunk" true
      (s.Metrics.build_peak_pairs >= min total chunk)
  end;
  check Alcotest.bool "peak <= crossings + chunk" true (s.Metrics.build_peak_pairs <= k + chunk);
  Metrics.reset ();
  ignore (Crossings.enumerate ~chunk ~pool:(Lazy.force par_pool) dom fns);
  let sp = Metrics.snapshot () in
  check Alcotest.int "pool: classified" s.Metrics.build_pairs_classified
    sp.Metrics.build_pairs_classified;
  check Alcotest.int "pool: chunks" s.Metrics.build_pair_chunks sp.Metrics.build_pair_chunks;
  check Alcotest.int "pool: crossings" s.Metrics.build_crossings sp.Metrics.build_crossings;
  check Alcotest.int "pool: peak" s.Metrics.build_peak_pairs sp.Metrics.build_peak_pairs;
  Metrics.reset ();
  ignore (Crossings_ref.enumerate dom fns);
  let s0 = Metrics.snapshot () in
  check Alcotest.int "scan ticks no classified" 0 s0.Metrics.build_pairs_classified;
  check Alcotest.int "scan ticks no chunks" 0 s0.Metrics.build_pair_chunks;
  check Alcotest.int "scan ticks no crossings" 0 s0.Metrics.build_crossings;
  check Alcotest.int "scan ticks no peak" 0 s0.Metrics.build_peak_pairs

let test_counters_exact () =
  counters_exact (table_dense 40 7) ~chunk:100;
  counters_exact (table_2d 14 7) ~chunk:10

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
    let la, ha = Itree.leaf_interval a id and lb, hb = Itree.leaf_interval b id in
    check Alcotest.bool (Printf.sprintf "leaf %d interval" id) true
      (Q.equal la lb && Q.equal ha hb)
  done

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
          Alcotest.test_case "chunk edges" `Quick test_chunk_edges;
        ] );
      ( "counters",
        [
          Alcotest.test_case "exact build counters" `Quick test_counters_exact;
        ] );
      ( "structure",
        [
          Alcotest.test_case "insertion-order independence" `Quick test_order_independence;
          Alcotest.test_case "full build identity across pools" `Quick test_full_build_identity;
        ] );
    ]
