(* Domain-pool unit tests and parallel-vs-sequential determinism: the
   owner-side pipeline must produce bit-identical indexes (serialized
   bytes, root hash, every signature) no matter how many domains run the
   build, and the Atomic metrics must count exactly under concurrent
   increments. CI runs this binary under AQV_DOMAINS=1 and =2 so both
   the sequential and the parallel code paths are exercised. *)

module Pool = Aqv_par.Pool
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Signer = Aqv_crypto.Signer
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
open Aqv
open Aqv_baseline

let check = Alcotest.check

(* 4 explicit domains regardless of AQV_DOMAINS / core count: the
   determinism claim is about any pool size, not the machine's. *)
let par_pool = lazy (Pool.create ~domains:4 ())
let seq_pool = lazy (Pool.create ~domains:1 ())

(* ------------------------------ pool units -------------------------- *)

let test_sizes () =
  check Alcotest.int "explicit size" 4 (Pool.size (Lazy.force par_pool));
  check Alcotest.int "sequential size" 1 (Pool.size (Lazy.force seq_pool));
  Alcotest.check_raises "zero domains" (Invalid_argument "Pool.create: domains < 1")
    (fun () -> ignore (Pool.create ~domains:0 ()));
  let d = Pool.default () in
  check Alcotest.bool "default cached" true (d == Pool.default ());
  check Alcotest.bool "default size >= 1" true (Pool.size d >= 1)

let test_env_sizing () =
  let saved = Sys.getenv_opt "AQV_DOMAINS" in
  Unix.putenv "AQV_DOMAINS" "3";
  let p = Pool.create () in
  check Alcotest.int "AQV_DOMAINS=3" 3 (Pool.size p);
  Pool.shutdown p;
  Unix.putenv "AQV_DOMAINS" "not-a-number";
  let q = Pool.create () in
  check Alcotest.bool "garbage env falls back" true (Pool.size q >= 1);
  Pool.shutdown q;
  Unix.putenv "AQV_DOMAINS" (Option.value ~default:"" saved)

let test_map_ordering () =
  let a = Array.init 1000 (fun i -> i) in
  let expect = Array.map (fun x -> (x * x) + 1) a in
  check
    Alcotest.(array int)
    "parallel = sequential" expect
    (Pool.parallel_map (Lazy.force par_pool) (fun x -> (x * x) + 1) a);
  check
    Alcotest.(array int)
    "size-1 pool" expect
    (Pool.parallel_map (Lazy.force seq_pool) (fun x -> (x * x) + 1) a)

let test_map_edges () =
  let p = Lazy.force par_pool in
  check Alcotest.(array int) "empty" [||] (Pool.parallel_map p (fun x -> x) [||]);
  check Alcotest.(array int) "singleton" [| 7 |] (Pool.parallel_map p (fun x -> x + 1) [| 6 |]);
  (* fewer elements than executors, and a non-multiple of the chunking *)
  check Alcotest.(array int) "n=3" [| 0; 2; 4 |] (Pool.parallel_init p 3 (fun i -> 2 * i));
  check Alcotest.int "n=4*4+3" 19 (Array.length (Pool.parallel_init p 19 (fun i -> i)));
  check Alcotest.(array int) "init 0" [||] (Pool.parallel_init p 0 (fun _ -> 0));
  Alcotest.check_raises "negative init"
    (Invalid_argument "Pool.parallel_init: negative length") (fun () ->
      ignore (Pool.parallel_init p (-1) (fun i -> i)))

let test_exception_propagation () =
  let p = Lazy.force par_pool in
  Alcotest.check_raises "exception reaches caller" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map p
           (fun x -> if x >= 700 then failwith "boom" else x)
           (Array.init 1000 (fun i -> i))));
  (* the pool survives a failed job *)
  check
    Alcotest.(array int)
    "usable after exception"
    (Array.init 100 (fun i -> i + 1))
    (Pool.parallel_map p (fun x -> x + 1) (Array.init 100 (fun i -> i)))

let test_nested_map () =
  let p = Lazy.force par_pool in
  let got =
    Pool.parallel_init p 8 (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_init p 50 (fun j -> (i * 50) + j)))
  in
  let expect = Array.init 8 (fun i -> ((2 * i * 50) + 49) * 50 / 2) in
  check Alcotest.(array int) "nested sums" expect got

let test_shutdown () =
  let p = Pool.create ~domains:3 () in
  check Alcotest.(array int) "before" [| 0; 1; 2 |] (Pool.parallel_init p 3 (fun i -> i));
  Pool.shutdown p;
  Pool.shutdown p;
  (* a shut-down pool degrades to sequential instead of hanging *)
  check Alcotest.(array int) "after shutdown" [| 0; 2; 4 |]
    (Pool.parallel_init p 3 (fun i -> 2 * i))

(* --------------------------- atomic metrics ------------------------- *)

let test_metrics_concurrent () =
  let p = Lazy.force par_pool in
  let rounds = 10_000 in
  Metrics.reset ();
  let before = Metrics.snapshot () in
  ignore
    (Pool.parallel_init p 8 (fun _ ->
         for _ = 1 to rounds do
           Metrics.add_hash ~bytes_len:3;
           Metrics.add_sign ();
           Metrics.add_verify ();
           Metrics.add_itree_nodes 2;
           Metrics.add_fmh_nodes 1;
           Metrics.add_mesh_cells 1;
           Metrics.add_bytes_out 5
         done));
  let d = Metrics.diff (Metrics.snapshot ()) before in
  let total = 8 * rounds in
  check Alcotest.int "hash_ops" total d.Metrics.hash_ops;
  check Alcotest.int "hash_bytes" (3 * total) d.Metrics.hash_bytes;
  check Alcotest.int "sign_ops" total d.Metrics.sign_ops;
  check Alcotest.int "verify_ops" total d.Metrics.verify_ops;
  check Alcotest.int "itree_nodes" (2 * total) d.Metrics.itree_nodes;
  check Alcotest.int "fmh_nodes" total d.Metrics.fmh_nodes;
  check Alcotest.int "mesh_cells" total d.Metrics.mesh_cells;
  check Alcotest.int "bytes_out" (5 * total) d.Metrics.bytes_out

(* --------------------------- determinism ---------------------------- *)

let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 42L))
let table_1d = lazy (Workload.lines_1d ~n:30 (Prng.create 5L))
let table_2d = lazy (Workload.scored ~n:10 ~dims:2 (Prng.create 6L))

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let hex = Aqv_util.Hex.encode

(* A parallel build must be indistinguishable from a sequential one:
   same serialized index, same IMH root hash, same signature on every
   leaf/root, same per-subdomain FMH roots — and, because the counters
   are atomic and the work identical, the same operation totals. *)
let check_identical scheme table =
  let build pool =
    Metrics.reset ();
    let before = Metrics.snapshot () in
    let index = Ifmh.build ~pool ~scheme table (Lazy.force keypair) in
    (index, Metrics.diff (Metrics.snapshot ()) before)
  in
  let seq, ops_seq = build (Lazy.force seq_pool) in
  let par, ops_par = build (Lazy.force par_pool) in
  let env = Ifmh.build ~scheme table (Lazy.force keypair) in
  check Alcotest.string "save bytes par" (hex (save_bytes seq)) (hex (save_bytes par));
  check Alcotest.string "save bytes env-pool" (hex (save_bytes seq)) (hex (save_bytes env));
  let root index = (Itree.root (Ifmh.itree index)).Itree.h in
  (match scheme with
  | Ifmh.One_signature ->
    check Alcotest.string "root hash" (hex (root seq)) (hex (root par));
    check Alcotest.string "root signature" (hex (Ifmh.root_signature seq))
      (hex (Ifmh.root_signature par))
  | Ifmh.Multi_signature ->
    let leaves = Itree.leaf_count (Ifmh.itree seq) in
    check Alcotest.int "leaf count" leaves (Itree.leaf_count (Ifmh.itree par));
    for id = 0 to leaves - 1 do
      check Alcotest.string "leaf signature" (hex (Ifmh.leaf_signature seq id))
        (hex (Ifmh.leaf_signature par id))
    done);
  let sorting index = Ifmh.sorting index in
  for id = 0 to Sorting.leaf_count (sorting seq) - 1 do
    check Alcotest.string "fmh root"
      (hex (Sorting.fmh_root (sorting seq) id))
      (hex (Sorting.fmh_root (sorting par) id))
  done;
  check Alcotest.int "hash ops" ops_seq.Metrics.hash_ops ops_par.Metrics.hash_ops;
  check Alcotest.int "sign ops" ops_seq.Metrics.sign_ops ops_par.Metrics.sign_ops

let test_ifmh_one_1d () = check_identical Ifmh.One_signature (Lazy.force table_1d)
let test_ifmh_multi_1d () = check_identical Ifmh.Multi_signature (Lazy.force table_1d)
let test_ifmh_one_2d () = check_identical Ifmh.One_signature (Lazy.force table_2d)
let test_ifmh_multi_2d () = check_identical Ifmh.Multi_signature (Lazy.force table_2d)

let test_load_parallel () =
  let table = Lazy.force table_1d in
  let index = Ifmh.build ~pool:(Lazy.force seq_pool) ~scheme:Ifmh.Multi_signature table
      (Lazy.force keypair)
  in
  let bytes = save_bytes index in
  let loaded = Ifmh.load ~pool:(Lazy.force par_pool) (Wire.reader bytes) in
  check Alcotest.string "load/save roundtrip" (hex bytes) (hex (save_bytes loaded));
  check Alcotest.string "leaf signature preserved"
    (hex (Ifmh.leaf_signature index 0))
    (hex (Ifmh.leaf_signature loaded 0))

let test_mesh_identical () =
  let table = Workload.lines_1d ~n:20 (Prng.create 9L) in
  let kp = Lazy.force keypair in
  let seq = Mesh.build ~pool:(Lazy.force seq_pool) table kp in
  let par = Mesh.build ~pool:(Lazy.force par_pool) table kp in
  let env = Mesh.build table kp in
  check Alcotest.int "signature count" (Mesh.signature_count seq) (Mesh.signature_count par);
  check Alcotest.int "subdomain count" (Mesh.subdomain_count seq) (Mesh.subdomain_count par);
  check Alcotest.string "fingerprint par" (hex (Mesh.fingerprint seq))
    (hex (Mesh.fingerprint par));
  check Alcotest.string "fingerprint env-pool" (hex (Mesh.fingerprint seq))
    (hex (Mesh.fingerprint env))

(* A parallel build must also behave: answer + verify end-to-end. *)
let test_parallel_index_serves () =
  let table = Lazy.force table_1d in
  let kp = Lazy.force keypair in
  let index = Ifmh.build ~pool:(Lazy.force par_pool) ~scheme:Ifmh.One_signature table kp in
  let ctx =
    Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
      ~verify_signature:kp.Signer.verify
  in
  let rng = Prng.create 11L in
  for _ = 1 to 10 do
    let q = Query.top_k ~x:(Workload.weight_point table rng) ~k:3 in
    match Client.verify ctx q (Server.answer index q) with
    | Ok () -> ()
    | Error r -> Alcotest.failf "parallel-built index rejected: %s" (Semantics.rejection_to_string r)
  done

let () =
  Alcotest.run "aqv_par"
    [
      ( "pool",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "env sizing" `Quick test_env_sizing;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "edge shapes" `Quick test_map_edges;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested maps" `Quick test_nested_map;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "metrics",
        [ Alcotest.test_case "concurrent increments exact" `Quick test_metrics_concurrent ] );
      ( "determinism",
        [
          Alcotest.test_case "ifmh one-sig 1d" `Quick test_ifmh_one_1d;
          Alcotest.test_case "ifmh multi-sig 1d" `Quick test_ifmh_multi_1d;
          Alcotest.test_case "ifmh one-sig 2d" `Quick test_ifmh_one_2d;
          Alcotest.test_case "ifmh multi-sig 2d" `Quick test_ifmh_multi_2d;
          Alcotest.test_case "load with pool" `Quick test_load_parallel;
          Alcotest.test_case "mesh" `Quick test_mesh_identical;
          Alcotest.test_case "parallel index serves" `Quick test_parallel_index_serves;
        ] );
    ]
