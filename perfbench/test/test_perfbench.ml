(* The benchmark's own helpers: exact percentiles, /proc parsing, span
   self times, and the metric names against BENCHMARK.json. *)

open Perfbench_kit

let feq = Alcotest.float 1e-9

let percentile_ranks () =
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50. (Measure.percentile hundred 50.);
  Alcotest.check feq "p99 of 1..100" 99. (Measure.percentile hundred 99.);
  Alcotest.check feq "p100 is the max" 100. (Measure.percentile hundred 100.);
  Alcotest.check feq "p1 is the min" 1. (Measure.percentile hundred 1.);
  (* nearest rank: ceil(0.99 * 1000) = 990th smallest *)
  let thousand = Array.init 1000 float_of_int in
  Alcotest.check feq "p99 of 0..999" 989. (Measure.percentile thousand 99.);
  Alcotest.check feq "one sample" 7. (Measure.percentile [| 7. |] 99.);
  (* a sample, never an interpolation or a bucket bound *)
  let xs = [| 1000.; 1.; 3.; 2. |] in
  Alcotest.check feq "p50 of four" 2. (Measure.percentile xs 50.);
  Alcotest.check feq "p75 of four" 3. (Measure.percentile xs 75.);
  Alcotest.check feq "p76 of four" 1000. (Measure.percentile xs 76.);
  Alcotest.check feq "input left unsorted" 1000. xs.(0);
  Alcotest.check_raises "no samples" (Invalid_argument "Measure.percentile: no samples")
    (fun () -> ignore (Measure.percentile [||] 50.));
  Alcotest.check_raises "p = 0" (Invalid_argument "Measure.percentile: p outside (0, 100]")
    (fun () -> ignore (Measure.percentile xs 0.))

let median_mean () =
  Alcotest.check feq "odd" 3. (Measure.median [| 5.; 3.; 1. |]);
  Alcotest.check feq "even" 2.5 (Measure.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "mean" 2.5 (Measure.mean [| 4.; 1.; 3.; 2. |])

let proc_stat () =
  (* the command name may hold spaces and parentheses *)
  let line = "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 120 0 0 0 250 75 0 0 20 0 3 0 99 0 0" in
  Alcotest.check feq "utime + stime in seconds" 3.25 (Measure.cpu_s_of_stat line);
  Alcotest.check_raises "truncated" (Failure "Measure.cpu_s_of_stat: truncated") (fun () ->
      ignore (Measure.cpu_s_of_stat "1 (x) S 1 2"));
  let own = Measure.proc_cpu_s (Unix.getpid ()) in
  Alcotest.(check bool) "own process readable" true (own >= 0.)

let proc_status () =
  let text = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 12345) (Measure.status_kb text "VmHWM");
  Alcotest.(check (option int)) "VmRSS" (Some 9000) (Measure.status_kb text "VmRSS");
  Alcotest.(check (option int)) "absent" None (Measure.status_kb text "VmSwap");
  Alcotest.(check bool) "own VmHWM" true (Measure.proc_hwm_mb (Unix.getpid ()) > 0.)

let proc_schedstat () =
  Alcotest.check feq "run time in seconds" 1.5 (Measure.cpu_s_of_schedstat "1500000000 2000 31\n");
  Alcotest.check_raises "truncated" (Failure "Measure.cpu_s_of_schedstat: truncated") (fun () ->
      ignore (Measure.cpu_s_of_schedstat "12\n"));
  (* a running thread's figure is brought up to date at the next
     scheduler tick, so work for several ticks *)
  let t0 = Measure.proc_threads_cpu_s (Unix.getpid ()) in
  ignore (Sys.opaque_identity (Speed.work 10_000_000));
  Alcotest.(check bool) "own threads advance" true (Measure.proc_threads_cpu_s (Unix.getpid ()) > t0)

let speed_slowdown () =
  let r = Speed.reference_s in
  Alcotest.check feq "no units" 1. (Speed.slowdown ~units:0 ~cpu_s:0.);
  Alcotest.check feq "at reference" 1. (Speed.slowdown ~units:4 ~cpu_s:(4. *. r));
  Alcotest.check feq "twice as slow" 2. (Speed.slowdown ~units:4 ~cpu_s:(8. *. r));
  Alcotest.(check bool) "a unit takes time" true (Speed.unit_cpu_s () >= 0.)

(* A slice of [n] replies in [wall] seconds, [slow] times slower than
   the reference, every latency [lat] seconds; at the reference speed a
   reply costs 100 us of server and 300 us of client CPU. *)
let slice ~n ~wall ~slow ~lat =
  {
    Slices.queries = n;
    wall_s = wall;
    lat_s = Array.make n lat;
    server_cpu_s = float_of_int n *. 1e-4 *. slow;
    client_cpu_s = float_of_int n *. 3e-4 *. slow;
    speed_units = 10;
    speed_cpu_s = 10. *. Speed.reference_s *. slow;
  }

let slices_at_reference () =
  let close = Alcotest.float 1e-6 in
  (* one slice at reference speed, one at half speed doing the same work
     per second of reference time, one third empty *)
  let sl =
    [
      slice ~n:100 ~wall:1. ~slow:1. ~lat:0.01;
      slice ~n:50 ~wall:1. ~slow:2. ~lat:0.02;
      slice ~n:0 ~wall:1. ~slow:1. ~lat:0.;
    ]
  in
  Alcotest.check close "throughput" 100. (Slices.throughput sl);
  Alcotest.check close "p50" 0.01 (Slices.latency sl 50.);
  Alcotest.check close "p99" 0.01 (Slices.latency sl 99.);
  Alcotest.check close "server cpu per reply" 1e-4 (Slices.server_cpu sl);
  Alcotest.check close "client cpu per reply" 3e-4 (Slices.client_cpu sl);
  (* the median slice, not the mean *)
  let sl =
    [
      slice ~n:100 ~wall:1. ~slow:1. ~lat:0.01;
      slice ~n:120 ~wall:1. ~slow:1. ~lat:0.01;
      slice ~n:10 ~wall:1. ~slow:1. ~lat:0.1;
    ]
  in
  Alcotest.check close "median slice" 100. (Slices.throughput sl);
  Alcotest.check close "median slice's p99" 0.01 (Slices.latency sl 99.)

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Measure.valid_name n))
    [ "setup_s"; "crossings.enumerate_ms"; "hot-read"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Measure.valid_name n))
    [ ""; ".x"; "_x"; "-x"; "a b"; "a/b"; "p99%"; String.make 65 'a' ]

let catalog_matches_benchmark_json () =
  let json =
    Aqv_util.Json.parse_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  let field k = function
    | Aqv_util.Json.Obj kvs -> List.assoc k kvs
    | _ -> Alcotest.fail "not an object"
  in
  let listed key =
    match field key json with
    | Aqv_util.Json.List ms ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Aqv_util.Json.String n, Aqv_util.Json.String u -> (n, u)
          | _ -> Alcotest.fail "name/unit not strings")
        ms
    | _ -> Alcotest.fail (key ^ " not a list")
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Catalog.end_to_end (listed "end_to_end");
  Alcotest.check pairs "per_layer" Catalog.per_layer (listed "per_layer");
  let all = List.map fst (Catalog.end_to_end @ Catalog.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) ("grammar " ^ n) true (Measure.valid_name n)) all;
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let result_line () =
  let line =
    Measure.result_line ~correct:true ~attempted:10 ~failed:0
      [ { Measure.name = "latency_ms"; value = 1.0 /. 3.0; unit = "ms" } ]
  in
  match Aqv_util.Json.parse_exn line with
  | Aqv_util.Json.Obj
      [
        ("correct", Aqv_util.Json.Bool true);
        ("attempted", Aqv_util.Json.Int 10);
        ("failed", Aqv_util.Json.Int 0);
        ("metrics", Aqv_util.Json.Obj [ ("latency_ms", Aqv_util.Json.Obj [ ("value", Aqv_util.Json.Float v); ("unit", Aqv_util.Json.String "ms") ]) ]);
      ] ->
    Alcotest.(check (float 0.)) "all digits kept" (1.0 /. 3.0) v
  | _ -> Alcotest.fail line

let span_self_times () =
  let s name start stop parent = { Spans.name; start; stop; parent; req = 0 } in
  (* a root of 10 s with two overlapping children (parallel work) and a
     later sequential one *)
  let spans =
    [| s "root" 0. 10. (-1); s "sign" 1. 4. 0; s "sign" 2. 5. 0; s "io" 6. 7. 0 |]
  in
  let self = Spans.self_times spans in
  Alcotest.check feq "root self" 5. self.(0);
  Alcotest.check feq "leaf self" 3. self.(1);
  let n, rows = Spans.self_by_name spans ~root:"root" in
  Alcotest.(check int) "one root" 1 n;
  Alcotest.(check (list (pair string (float 1e-9))))
    "overlap counted once; rows sum to the root"
    [ ("root", 5.); ("sign", 4.); ("io", 1.) ]
    rows;
  Alcotest.check feq "union" 4. (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 5.) ]);
  Alcotest.check feq "clipped" 1. (Spans.covered ~lo:3. ~hi:4. [ (1., 4.); (2., 5.) ])

let span_merge () =
  let s name start stop parent = { Spans.name; start; stop; parent; req = 0 } in
  let base = [| s "setup" 0. 10. (-1); s "query" 20. 21. (-1) |] in
  let child = [| s "build" 1. 3. (-1); s "sign" 1.5 2. 0; s "apply" 30. 31. (-1) |] in
  let m = Spans.merge base child in
  Alcotest.(check (list int)) "parents"
    [ -1; -1; 0; 2; -1 ]
    (Array.to_list (Array.map (fun x -> x.Spans.parent) m))

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "exact percentile ranks" `Quick percentile_ranks;
          Alcotest.test_case "median and mean" `Quick median_mean;
          Alcotest.test_case "/proc stat" `Quick proc_stat;
          Alcotest.test_case "/proc status" `Quick proc_status;
          Alcotest.test_case "/proc schedstat" `Quick proc_schedstat;
          Alcotest.test_case "metric name grammar" `Quick names;
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick
            catalog_matches_benchmark_json;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
      ( "speed",
        [
          Alcotest.test_case "slowdown" `Quick speed_slowdown;
          Alcotest.test_case "slices at reference speed" `Quick slices_at_reference;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick span_self_times;
          Alcotest.test_case "merge adopts roots" `Quick span_merge;
        ] );
    ]
