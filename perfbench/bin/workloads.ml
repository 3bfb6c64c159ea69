(* The benchmark's workloads. Each is a Spec.t (dataset, query mix,
   popularity) plus the number of owner updates after the read window.

   The table and the traffic — hot set and one long query stream — come
   from the spec's own seed and are the same in every run. The crossing
   count of a random dense family, and with it build, update and
   snapshot cost, swings by about ten per cent from one table to the
   next; and under zipf 0.99 over 64 points the hottest point takes a
   fifth of the reads, so which points are hot moved the cost of a query
   by more than a tenth from one hot set to the next. The seed given on
   the command line picks the run's own walk through that stream (a
   start and a step) and the owner's updates, both through
   Trace.generate. One read connection: with two from one client
   process, the median sat between cache-hit and cache-miss latencies
   and moved by a third from run to run. *)

open Aqv_db

type t = {
  name : string;
  spec : Spec.t;  (** seed field: the table's seed *)
  updates : int;
      (** Owner updates made back to back once the read window has
          closed, so the window itself sees no writes. *)
  traffic_sha256 : string;  (** digest of the traffic trace, the same for every seed *)
  updates_sha256 : string;  (** digest of the updates trace at {!default_seed} *)
}

let default_seed = 1

(* A prime, so that every step walks the whole stream; more reads than
   the longest window sends *)
let stream_length = 100_003

let spec ~name ~records ~intercept_range ~hot_set ~zipf_theta ~k_max ~mix =
  {
    Spec.name;
    seed = default_seed;
    records;
    dims = 1;
    intercept_range;
    scheme = Spec.Multi;
    clients = 1;
    (* more than a 10 s window consumes; a longer window wraps around to
       the start of the stream *)
    requests_per_client = stream_length;
    hot_set;
    zipf_theta;
    k_max;
    mix;
    (* the trace holds more updates than a run makes *)
    republishes = 12;
    republish_rate_hz = 1.;
    replicas = 1;
    slo =
      {
        Spec.min_throughput_rps = Some 1.;
        p50_us_max = None;
        p99_us_max = None;
        p999_us_max = None;
        min_post_republish_frag_hit_rate = None;
      };
  }

let all =
  [
    (* Warm caches and wide windows: zipf over 64 hot points repeats
       requests (response-cache hits) and re-touches subdomains
       (fragment-cache hits); a sparse 2 000-record family gives
       ~750-record range windows at the tail. Client verification and
       the codec dominate a query; pair enumeration (2 M pairs)
       dominates set-up. *)
    {
      name = "hot-read";
      spec =
        spec ~name:"hot-read" ~records:2000 ~intercept_range:1_000_000
          ~hot_set:64 ~zipf_theta:0.99 ~k_max:8
          ~mix:{ Spec.topk = 0.7; range = 0.25; knn = 0.05 };
      updates = 4;
      traffic_sha256 =
        "c3d6170d0454a904b34c658534228e19a59f645bc5bdb592420c77deb7465efe";
      updates_sha256 =
        "a7ee195c2e5e114d90e9530b63d30c8e3c8d3bfcc1a3f74e437cc5c9dc1d441a";
    };
    (* Cold reads: uniform over 4 096 points of a dense 200-record family
       (~7.1 k subdomains, more than the fragment cache holds), so both
       serving caches are mostly bypassed and Server.answer's locate and
       assembly dominate a query; signing ~7.1 k leaves dominates
       set-up. *)
    {
      name = "cold-read";
      spec =
        spec ~name:"cold-read" ~records:200 ~intercept_range:1000 ~hot_set:4096
          ~zipf_theta:0. ~k_max:64
          ~mix:{ Spec.topk = 0.4; range = 0.5; knn = 0.1 };
      (* an update costs about as much as a set-up here; three keep a
         run within its time *)
      updates = 3;
      traffic_sha256 =
        "915e2088f56a046fbcc0ba703dd0156e2fc1b97ab80a375f804ca82386ef1dc9";
      updates_sha256 =
        "c4d092bc653d846050544a13349a618c287a89dbd7254cea970381be0c23863f";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let table w = Workload.table_of_spec w.spec

let validated w spec =
  match Spec.validate spec with
  | Ok s -> s
  | Error e -> failwith ("workload " ^ w.name ^ ": " ^ Spec.error_to_string e)

(* The hot set and the query stream, the same in every run. *)
let traffic w table = Workload.Trace.generate (validated w w.spec) table

(* The owner's updates at [seed]: the republishes of a trace with the
   run's seed (its one query is not used). *)
let updates w table ~seed =
  Workload.Trace.generate
    (validated w { w.spec with Spec.seed; requests_per_client = 1 })
    table

(* The run's reads at [seed]: the traffic stream walked from a start
   with a step, both drawn from the seed. The stream's length is prime,
   so every step visits each operation once. *)
let reads (traffic : Workload.Trace.t) ~seed =
  let ops = traffic.Workload.Trace.per_client.(0) in
  let n = Array.length ops in
  let rng = Aqv_util.Prng.create (Int64.of_int seed) in
  let start = Aqv_util.Prng.int rng n in
  let step = 1 + Aqv_util.Prng.int rng (n - 1) in
  Array.init n (fun i -> ops.((start + (i * step)) mod n))

let query_of_op = function
  | Workload.Trace.Op_top_k { x; k } -> Aqv.Query.top_k ~x ~k
  | Workload.Trace.Op_range { x; l; u } -> Aqv.Query.range ~x ~l ~u
  | Workload.Trace.Op_knn { x; k; y } -> Aqv.Query.knn ~x ~k ~y
