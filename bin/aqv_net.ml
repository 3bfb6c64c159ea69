(* aqv_net: the paper's three-party model over TCP.

     aqv_net publish --records 100 --seed 7 --scheme multi --dir /tmp/aqv
         owner: build the index, publish it through the durable store
         (index.bin snapshot + wal.log, both crash-safe) and write
         bundle.bin (template + domain + public key + epoch, for users)

     aqv_net serve --dir /tmp/aqv --port 7464
         storage server: recover the store (validate the snapshot,
         truncate a torn log tail, replay surviving deltas), then serve
         framed requests through the concurrent Aqv_serve.Engine
         (bounded connections, per-connection deadlines, LRU response
         cache, graceful shutdown on SIGINT/SIGTERM, periodic stats
         log). Accepted republishes are fsync'd to wal.log before the
         ack, so a crashed server restarts at the last acked epoch.
         Every server is also a replication primary: followers can
         Subscribe and tail its durably-acked deltas.

     aqv_net serve --dir /tmp/aqv-replica --follow 127.0.0.1:7464
         read replica: bootstrap from the primary if the dir is empty
         (snapshot over the wire), then tail its delta stream through
         the same WAL-append-then-swap path a primary uses — so the
         replica is crash-recoverable exactly like a primary, and
         byte-identical to it at every epoch. Wire republishes are
         refused; only the stream mutates a replica.

     aqv_net route --replicas 127.0.0.1:7464,127.0.0.1:7465 --port 7500
         epoch-aware front door: forward request frames verbatim to
         replicas at the best known epoch (never a lagging one), fail
         over on refusal or timeout. Never decodes or re-signs
         anything, so client verification spans it unchanged.

     aqv_net fsck --dir /tmp/aqv
         read-only store health check: validate snapshot + log, dry-run
         the replay, report epochs and any torn tail

     aqv_net compact --dir /tmp/aqv
         fold the delta log into a fresh snapshot at the current epoch

     aqv_net query --dir /tmp/aqv --port 7464 --type topk --k 5 --at 0.3
         data user: read bundle.bin, send the query, VERIFY the reply

     aqv_net stats --port 7464
         dump the server's observability counters (in-band request)

     aqv_net workload --spec workloads/smoke.json --json out.json
         declarative traffic model: expand the spec's seed-fixed query
         trace (zipfian hot-set popularity, mixed top-k/range/KNN,
         open-loop republishes), replay it against the in-process
         primary/follower/router rig, and gate on the spec's declared
         SLOs — non-zero exit on any violation

     aqv_net selftest
         fork a server, run owner + client against it (including cache
         and stats checks and a SIGTERM graceful-shutdown check), exit
         non-zero on any failure

   The server process never sees a private key; the user process never
   sees the database — only the owner's 100-odd-byte bundle. *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Histogram = Aqv_util.Histogram
module Json = Aqv_util.Json
module Spec = Aqv_db.Spec
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
module Engine = Aqv_serve.Engine
module Roundtrip = Aqv_serve.Roundtrip
module Faults = Aqv_serve.Faults
module Stats = Aqv_serve.Stats
module Store = Aqv_store.Store
module Store_error = Aqv_store.Error
module Hub = Aqv_cluster.Hub
module Follower = Aqv_cluster.Follower
module Router = Aqv_cluster.Router
open Aqv
open Cmdliner

(* Every file this CLI publishes goes through the store's atomic
   temp+rename writer: a crash mid-write can never leave a torn
   index.bin or bundle.bin for a later [serve --dir] to trip over. *)
let write_file path contents =
  Aqv_store.Ioutil.atomic_write_file ~path contents

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

(* transport failures (server down, every retry exhausted) are user
   errors at the CLI surface, not internal ones *)
let or_transport_error f =
  try f ()
  with Failure m when String.length m >= 9 && String.sub m 0 9 = "Roundtrip" ->
    Printf.eprintf "aqv_net: %s\n" m;
    exit 1

let setup_logging () =
  Logs_threaded.enable ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match Sys.getenv_opt "AQV_LOG" with
    | Some "debug" -> Some Logs.Debug
    | Some "info" -> Some Logs.Info
    | Some "quiet" -> None
    | _ -> Some Logs.Warning)

(* ------------------------------ publish ----------------------------- *)

(* Build + publish split so selftest can keep the owner-side index (and
   keypair) in hand for the republish round. *)
let build_index n seed scheme epoch =
  let table = Workload.lines_1d ~n (Prng.create (Int64.of_int seed)) in
  let keypair = Signer.generate ~bits:512 Signer.Rsa (Prng.create 1L) in
  let index = Ifmh.build ~epoch ~scheme table keypair in
  (keypair, index)

let publish_to dir index keypair =
  let store = Store.publish ~dir index in
  Store.close store;
  let wb = Wire.writer () in
  Protocol.encode_bundle wb (Protocol.bundle_of_index index keypair.Signer.public);
  write_file (Filename.concat dir "bundle.bin") (Wire.contents wb);
  String.length (Wire.contents wb)

let run_publish n seed scheme epoch dir =
  let scheme = match scheme with `One -> Ifmh.One_signature | `Multi -> Ifmh.Multi_signature in
  let keypair, index = build_index n seed scheme epoch in
  let bundle_bytes =
    try publish_to dir index keypair
    with Store_error.Error e ->
      Printf.eprintf "aqv_net: cannot publish to %s: %s\n" dir (Store_error.to_string e);
      exit 1
  in
  Printf.printf "published: %d records, %s, epoch %d\n" n (Ifmh.scheme_name scheme) epoch;
  Printf.printf "  index.bin  %d bytes (checksummed snapshot, for the storage server)\n"
    (Aqv_store.Ioutil.file_size (Store.snapshot_path dir));
  Printf.printf "  wal.log    fresh (accepted republishes land here)\n";
  Printf.printf "  bundle.bin %d bytes (for data users)\n" bundle_bytes

(* ------------------------------- serve ------------------------------ *)

let engine_config port max_conns cache_capacity idle_timeout read_timeout
    write_timeout stats_interval faults =
  {
    Engine.default_config with
    port;
    max_conns;
    cache_capacity;
    idle_timeout;
    read_timeout;
    write_timeout;
    stats_interval;
    faults;
  }

(* "host:port" (or a bare port, meaning loopback) for --follow and
   --replicas *)
let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> (Unix.inet_addr_loopback, int_of_string s)
  | Some i ->
    let host = String.sub s 0 i in
    let port = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    (addr, port)

(* A follower with an empty --dir bootstraps its store from the
   primary: fetch a full snapshot over the wire, publish it locally
   (durable before serving, like any publish), then recover from our
   own store as usual — the recovery path stays the only way an index
   reaches the engine. *)
let open_or_bootstrap dir follow =
  match (follow, Sys.file_exists (Store.snapshot_path dir)) with
  | Some (host, port), false ->
    Printf.printf "bootstrapping from %s:%d ...\n%!" (Unix.string_of_inet_addr host) port;
    let index = Follower.bootstrap ~host ~port () in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Store.close (Store.publish ~dir index);
    Store.open_dir dir
  | _ -> Store.open_dir dir

let run_serve dir port max_conns cache_capacity idle_timeout read_timeout
    write_timeout stats_interval fault_spec follow port_file =
  setup_logging ();
  let follow = Option.map parse_hostport follow in
  match open_or_bootstrap dir follow with
  | Error e ->
    Printf.eprintf "aqv_net: cannot recover store in %s: %s\n" dir
      (Store_error.to_string e);
    exit 1
  | Ok (store, index, recovery) ->
    (* every server publishes its stream: a follower can itself have
       followers (chained replication), because Engine.republish ships
       whatever it durably applied, whatever the source *)
    let hub = Hub.create ~initial:index () in
    let config =
      {
        (engine_config port max_conns cache_capacity idle_timeout
           read_timeout write_timeout stats_interval fault_spec)
        with
        Engine.store = Some store;
        accept_republish = Option.is_none follow;
        publisher = Some (Hub.publisher hub);
      }
    in
    let engine = Engine.create config index in
    Stats.recovered (Engine.stats engine)
      ~torn_tail:(recovery.Store.torn_tail_bytes > 0)
      ~coalesced:recovery.Store.replayed;
    let follower =
      Option.map
        (fun (host, port) -> Follower.start ~host ~engine ~port ())
        follow
    in
    let stop _ =
      Hub.stop hub;
      Engine.stop engine
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf
      "recovered epoch %d (snapshot epoch %d, %d delta(s) replayed, \
       coalesced into one rebuild, %d skipped, %d torn byte(s) truncated)\n"
      recovery.Store.final_epoch recovery.Store.snapshot_epoch
      recovery.Store.replayed recovery.Store.skipped
      recovery.Store.torn_tail_bytes;
    Printf.printf "serving %d records on 127.0.0.1:%d (max %d conns, cache %d)%s\n%!"
      (Table.size (Ifmh.table index))
      (Engine.port engine)
      config.Engine.max_conns config.Engine.cache_capacity
      (match follow with
      | Some (host, port) ->
        Printf.sprintf " following %s:%d" (Unix.string_of_inet_addr host) port
      | None -> "");
    Option.iter (fun pf -> write_file pf (string_of_int (Engine.port engine))) port_file;
    Engine.serve engine;
    Option.iter Follower.stop follower;
    Hub.stop hub;
    Store.close store

(* ------------------------------- route ------------------------------ *)

let run_route replicas port poll_interval port_file =
  setup_logging ();
  let replicas = List.map parse_hostport (String.split_on_char ',' replicas) in
  let router = Router.create ~poll_interval ~port ~replicas () in
  let stop _ = Router.stop router in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Printf.printf "routing 127.0.0.1:%d -> %d replica(s), epochs [%s]\n%!"
    (Router.port router) (List.length replicas)
    (String.concat "; " (List.map string_of_int (Router.epochs router)));
  Option.iter (fun pf -> write_file pf (string_of_int (Router.port router))) port_file;
  Router.serve router;
  List.iter
    (fun (name, n) -> Printf.printf "  %-24s %d forwarded\n" name n)
    (Router.counts router)

(* ------------------------------- query ------------------------------ *)

let run_query dir port qtype k l u y at =
  setup_logging ();
  let bundle = Protocol.decode_bundle (Wire.reader (read_file (Filename.concat dir "bundle.bin"))) in
  let ctx = Protocol.client_ctx bundle in
  let x = [| Q.of_decimal at |] in
  let query =
    match qtype with
    | `Topk -> Query.top_k ~x ~k
    | `Range -> Query.range ~x ~l:(Q.of_decimal l) ~u:(Q.of_decimal u)
    | `Knn -> Query.knn ~x ~k ~y:(Q.of_decimal y)
  in
  Format.printf "query: %a@." Query.pp query;
  match or_transport_error (fun () -> Roundtrip.call ~port (Protocol.Run_query query)) with
  | Protocol.Refused m -> Format.printf "server refused: %s@." m
  | Protocol.Rank_answer _ | Protocol.Count_answer _ | Protocol.Stats _
  | Protocol.Republished _ | Protocol.Hello _ | Protocol.Delta_frame _
  | Protocol.Snapshot_frame _ ->
    Format.printf "protocol violation@."
  | Protocol.Answer resp ->
    Format.printf "result (%d records):@." (List.length resp.Server.result);
    List.iter (fun r -> Format.printf "  %a@." Record.pp r) resp.Server.result;
    (match Client.verify ctx query resp with
    | Ok () -> Format.printf "verification: ACCEPTED@."
    | Error r -> Format.printf "verification: REJECTED (%s)@." (Client.rejection_to_string r))

(* ------------------------------- stats ------------------------------ *)

let run_stats port =
  setup_logging ();
  match or_transport_error (fun () -> Roundtrip.call ~port Protocol.Get_stats) with
  | Protocol.Stats kvs ->
    List.iter (fun (k, v) -> Printf.printf "%-24s %d\n" k v) kvs
  | Protocol.Refused m -> Printf.printf "server refused: %s\n" m
  | _ -> print_endline "protocol violation"

(* --------------------------- fsck / compact ------------------------- *)

(* machine-readable reports (fsck --json, workload --json) all go
   through Aqv_util.Json; short aliases keep the report builders
   readable *)
let json_value = Json.to_string
let jS s = Json.String s
let jI n = Json.Int n
let jF x = Json.Float x
let jO fields = Json.Obj fields

let run_fsck dir json =
  setup_logging ();
  match Store.fsck dir with
  | Error e ->
    if json then
      print_endline
        (json_value (jO [ ("dir", jS dir); ("ok", jI 0); ("error", jS (Store_error.to_string e)) ]))
    else Printf.printf "fsck %s: FAILED\n  %s\n" dir (Store_error.to_string e);
    exit 1
  | Ok r when json ->
    print_endline
      (json_value
         (jO [
              ("dir", jS dir);
              ("ok", jI 1);
              ("scheme", jS (Ifmh.scheme_name r.Store.r_scheme));
              ("snapshot_epoch", jI r.Store.r_snapshot_epoch);
              ("snapshot_bytes", jI r.Store.r_snapshot_bytes);
              ("n_leaves", jI r.Store.r_n_leaves);
              ("log_frames", jI r.Store.r_log_frames);
              ("replayed", jI r.Store.r_replayed);
              ("skipped", jI r.Store.r_skipped);
              ("frames_coalesced", jI r.Store.r_replayed);
              ("final_epoch", jI r.Store.r_final_epoch);
              ("torn_tail_bytes", jI r.Store.r_torn_tail_bytes);
            ]))
  | Ok r ->
    Printf.printf "fsck %s: OK\n" dir;
    Printf.printf "  scheme          %s\n" (Ifmh.scheme_name r.Store.r_scheme);
    Printf.printf "  snapshot        epoch %d, %d bytes, %d leaves\n"
      r.Store.r_snapshot_epoch r.Store.r_snapshot_bytes r.Store.r_n_leaves;
    Printf.printf "  log             %d frame(s): %d replayable, %d stale\n"
      r.Store.r_log_frames r.Store.r_replayed r.Store.r_skipped;
    Printf.printf "  replay          %d frame(s) coalesced into one rebuild\n"
      r.Store.r_replayed;
    Printf.printf "  final epoch     %d\n" r.Store.r_final_epoch;
    if r.Store.r_torn_tail_bytes > 0 then
      Printf.printf "  torn tail       %d byte(s), truncated on next serve\n"
        r.Store.r_torn_tail_bytes

let run_compact dir =
  setup_logging ();
  match Store.open_dir dir with
  | Error e ->
    Printf.eprintf "aqv_net: cannot recover store in %s: %s\n" dir
      (Store_error.to_string e);
    exit 1
  | Ok (store, index, recovery) ->
    let frames = Store.log_frames store in
    Store.compact store index;
    Store.close store;
    Printf.printf "compacted %s: snapshot now at epoch %d (%d log frame(s) folded in)\n"
      dir recovery.Store.final_epoch frames

(* -------------------------------- rig ------------------------------- *)

(* Shared in-process serving rig: a primary engine (with a hub when
   replicas > 1), follower engines tailing its delta stream, and an
   epoch-aware router in front — the same topology `aqv_net selftest`
   stands up out-of-process. [f ~engine ~primary_port ~port] runs the
   load against the front door [port] (the router when replicas > 1,
   the primary otherwise); once it returns, the rig is torn down in
   dependency order and the router's per-replica request counts are
   returned alongside [f]'s result. *)
let with_rig ~index ~cache_capacity ~max_conns ~replicas f =
  let engine_cfg accept_republish publisher =
    {
      Engine.default_config with
      port = 0;
      cache_capacity;
      max_conns;
      accept_republish;
      publisher;
    }
  in
  let hub = if replicas > 1 then Some (Hub.create ~initial:index ()) else None in
  let engine = Engine.create (engine_cfg true (Option.map Hub.publisher hub)) index in
  let server = Thread.create Engine.serve engine in
  let primary_port = Engine.port engine in
  (* follower engines share the just-built index as their bootstrap
     state (no store: the rig measures serving, not fsync) and tail the
     primary like any out-of-process replica would *)
  let follower_engines =
    List.init (replicas - 1) (fun _ -> Engine.create (engine_cfg false None) index)
  in
  let follower_servers = List.map (fun e -> Thread.create Engine.serve e) follower_engines in
  let followers =
    List.map (fun e -> Follower.start ~engine:e ~port:primary_port ()) follower_engines
  in
  let router =
    if replicas > 1 then
      Some
        (Router.create ~poll_interval:0.1
           ~replicas:
             (List.map
                (fun p -> (Unix.inet_addr_loopback, p))
                (primary_port :: List.map Engine.port follower_engines))
           ())
    else None
  in
  let router_server = Option.map (fun r -> Thread.create Router.serve r) router in
  let port = match router with Some r -> Router.port r | None -> primary_port in
  let result = f ~engine ~primary_port ~port in
  let replica_counts =
    match router with Some r -> Router.counts r | None -> []
  in
  Option.iter Router.stop router;
  Option.iter Thread.join router_server;
  List.iter Follower.stop followers;
  Option.iter Hub.stop hub;
  List.iter Engine.stop follower_engines;
  Engine.stop engine;
  Thread.join server;
  List.iter Thread.join follower_servers;
  (result, replica_counts)

(* One republish, one connection, one verdict. The connection is opened
   only once the delta is ready: an owner-side [Ifmh.apply] can outlast
   the engine's idle_timeout, and a session held open across it gets
   dropped server-side — the drop then surfaces as EPIPE on the next
   write and, uncaught, kills the republisher thread silently. The ack
   wait also gets a generous timeout (the server-side apply of a large
   delta can outlast the default 5 s), and every failure mode — refusal,
   timeout, connect error — is counted, never allowed to escape. *)
let republish_opts = { Roundtrip.default_opts with read_timeout = 120. }

let send_republish ~primary_port ~repub_hist ~repub_failures delta =
  let t0 = Unix.gettimeofday () in
  match
    Roundtrip.with_connection ~opts:republish_opts ~port:primary_port (fun fd ->
        Roundtrip.ask ~opts:republish_opts fd (Protocol.Republish delta))
  with
  | Protocol.Republished _ ->
    Histogram.observe repub_hist
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  | _ -> incr repub_failures
  | exception _ -> incr repub_failures

(* ------------------------------ workload ----------------------------- *)

(* Declarative traffic-model runner: load a [Spec.t], expand its
   bit-reproducible trace (hot set, zipfian per-client op streams,
   republish contents — all fixed by the spec seed), replay it against
   the in-process rig, and gate the measured numbers on the spec's
   declared SLOs. Exit 2 on a bad spec, 1 on an SLO violation or a
   verification failure, 0 when the gate passes.

   The JSON report keeps every wall-clock-dependent number inside the
   "measured" object and the per-bound "actual" fields; everything else
   (spec echo, trace digest and op counts, declared limits, the pass
   verdict) is deterministic in the spec, which is what the CI
   determinism guard compares across AQV_DOMAINS settings. *)

let query_of_op = function
  | Workload.Trace.Op_top_k { x; k } -> Query.top_k ~x ~k
  | Workload.Trace.Op_range { x; l; u } -> Query.range ~x ~l ~u
  | Workload.Trace.Op_knn { x; k; y } -> Query.knn ~x ~k ~y

let run_workload spec_path replicas_override seed_override json_path =
  setup_logging ();
  let fail_spec e =
    Printf.eprintf "aqv_net: %s: %s\n" spec_path (Spec.error_to_string e);
    exit 2
  in
  let spec = match Spec.load spec_path with Error e -> fail_spec e | Ok s -> s in
  let spec =
    {
      spec with
      Spec.replicas = Option.value replicas_override ~default:spec.Spec.replicas;
      seed = Option.value seed_override ~default:spec.Spec.seed;
    }
  in
  let spec = match Spec.validate spec with Error e -> fail_spec e | Ok s -> s in
  let table = Workload.table_of_spec spec in
  let keypair = Signer.generate ~bits:512 Signer.Rsa (Prng.create 1L) in
  let scheme =
    match spec.Spec.scheme with
    | Spec.One -> Ifmh.One_signature
    | Spec.Multi -> Ifmh.Multi_signature
  in
  let index = Ifmh.build ~epoch:1 ~scheme table keypair in
  let bundle = Protocol.bundle_of_index index keypair.Signer.public in
  let ctx = Protocol.client_ctx bundle in
  let trace = Workload.Trace.generate spec table in
  (* The owner's side of every republish is fixed by the trace, so it
     runs here, before the rig and the timed window: [Ifmh.apply]
     re-signs every leaf, and a republisher computing it in the window
     held every reader behind the owner's signing. The republisher only
     sends; [send_republish] times send-to-ack. *)
  let deltas =
    let cur = ref index in
    Array.mapi
      (fun i (id, attrs) ->
        let changes = [ Update.Modify (Record.make ~id ~attrs ()) ] in
        let next = Ifmh.apply ~epoch:(i + 2) keypair changes !cur in
        cur := next;
        Ifmh.delta ~changes next)
      trace.Workload.Trace.republishes
  in
  let failures = ref 0 and failures_mu = Mutex.create () in
  let repub_hist = Histogram.create () in
  let repub_failures = ref 0 in
  let hists = Array.make spec.Spec.clients (Histogram.create ()) in
  let wall = ref 0. in
  let engine, replica_counts =
    with_rig ~index ~cache_capacity:256 ~max_conns:(spec.Spec.clients + 8)
      ~replicas:spec.Spec.replicas (fun ~engine ~primary_port ~port ->
        (* replay client [i]'s pre-generated op stream; every reply is
           verified, every latency observed *)
        let replay ~port i =
          let hist = Histogram.create () in
          Roundtrip.with_connection ~port (fun fd ->
              Array.iter
                (fun op ->
                  let q = query_of_op op in
                  let t0 = Unix.gettimeofday () in
                  let reply = Roundtrip.ask fd (Protocol.Run_query q) in
                  Histogram.observe hist
                    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
                  let ok =
                    match reply with
                    | Protocol.Answer r -> Client.accepts ctx q r
                    | _ -> false
                  in
                  if not ok then begin
                    Mutex.lock failures_mu;
                    incr failures;
                    Mutex.unlock failures_mu
                  end)
                trace.Workload.Trace.per_client.(i));
          hist
        in
        (* open-loop republisher: update [i] is due at
           t_start + i / rate_hz regardless of how long earlier updates
           took — the schedule never waits for the system (the paper's
           sustained-update regime), only the contents are from the
           trace *)
        let repub_thread () =
          let rate = spec.Spec.republish_rate_hz in
          let t_start = Unix.gettimeofday () in
          Array.iteri
            (fun i delta ->
              let due = t_start +. (float_of_int i /. rate) in
              let now = Unix.gettimeofday () in
              if due > now then Thread.delay (due -. now);
              send_republish ~primary_port ~repub_hist ~repub_failures delta)
            deltas
        in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init spec.Spec.clients (fun i ->
              Thread.create (fun () -> hists.(i) <- replay ~port i) ())
        in
        let republisher =
          if spec.Spec.republishes > 0 then Some (Thread.create repub_thread ())
          else None
        in
        List.iter Thread.join threads;
        wall := Unix.gettimeofday () -. t0;
        Option.iter Thread.join republisher;
        (* a republisher that died early can never fake a PASS: every
           scheduled update that was neither acked nor already counted
           as a failure is a failure *)
        let missing =
          spec.Spec.republishes - Histogram.count repub_hist - !repub_failures
        in
        if missing > 0 then repub_failures := !repub_failures + missing;
        engine)
  in
  let wall = !wall in
  let hist = Array.fold_left Histogram.merge (Histogram.create ()) hists in
  let total = spec.Spec.clients * spec.Spec.requests_per_client in
  let stats = Engine.stats engine in
  let measured =
    {
      Spec.throughput_rps = float_of_int total /. wall;
      p50_us = Histogram.percentile_permille hist 500;
      p99_us = Histogram.percentile_permille hist 990;
      p999_us = Histogram.percentile_permille hist 999;
    }
  in
  let violations = Spec.evaluate_slo spec.Spec.slo measured in
  let all_failures = !failures + !repub_failures in
  let gate_ok = violations = [] && all_failures = 0 in
  (* one row per declared bound, violated or not, for the report *)
  let slo_rows =
    let row bound limit actual =
      let ok = not (List.exists (fun v -> v.Spec.bound = bound) violations) in
      (bound, limit, actual, ok)
    in
    List.filter_map Fun.id
      [
        Option.map
          (fun l -> row "min_throughput_rps" l measured.Spec.throughput_rps)
          spec.Spec.slo.Spec.min_throughput_rps;
        Option.map
          (fun l ->
            row "p50_us_max" (float_of_int l) (float_of_int measured.Spec.p50_us))
          spec.Spec.slo.Spec.p50_us_max;
        Option.map
          (fun l ->
            row "p99_us_max" (float_of_int l) (float_of_int measured.Spec.p99_us))
          spec.Spec.slo.Spec.p99_us_max;
        Option.map
          (fun l ->
            row "p999_us_max" (float_of_int l) (float_of_int measured.Spec.p999_us))
          spec.Spec.slo.Spec.p999_us_max;
      ]
  in
  let topk, range, knn = Workload.Trace.op_counts trace in
  Printf.printf "workload \"%s\": %d records (dims %d, %s), %d clients x %d requests, %d replica(s)\n"
    spec.Spec.name spec.Spec.records spec.Spec.dims (Ifmh.scheme_name scheme)
    spec.Spec.clients spec.Spec.requests_per_client spec.Spec.replicas;
  Printf.printf "  trace       sha256=%s\n" trace.Workload.Trace.sha256_hex;
  Printf.printf "  mix         %d topk / %d range / %d knn (zipf theta %.2f over %d hot)\n"
    topk range knn spec.Spec.zipf_theta spec.Spec.hot_set;
  Printf.printf "  wall        %.3f s (sha256 kernel %s)\n" wall Aqv_crypto.Sha256.kernel;
  Printf.printf "  throughput  %.0f req/s\n" measured.Spec.throughput_rps;
  Printf.printf "  latency us  p50=%d p99=%d p999=%d max=%d\n" measured.Spec.p50_us
    measured.Spec.p99_us measured.Spec.p999_us (Histogram.max_value hist);
  if spec.Spec.republishes > 0 then begin
    Printf.printf
      "  republish   %d acked at %.1f Hz open-loop, latency us p50=%d p99=%d\n"
      (Histogram.count repub_hist) spec.Spec.republish_rate_hz
      (Histogram.percentile repub_hist 50)
      (Histogram.percentile repub_hist 99)
  end;
  if replica_counts <> [] then
    List.iter
      (fun (name, n) -> Printf.printf "  replica     %-20s %d request(s)\n" name n)
      replica_counts;
  Printf.printf "  verify      %d failure(s)\n" all_failures;
  let memo = Client.memo_counters ctx in
  Printf.printf "  digest memo records %d hits / %d misses, FMH nodes %d hits / %d misses\n"
    memo.Client.record_hits memo.Client.record_misses memo.Client.node_hits
    memo.Client.node_misses;
  List.iter
    (fun (bound, limit, actual, ok) ->
      Printf.printf "  slo         %-34s limit %-12.6g actual %-12.6g %s\n" bound
        limit actual
        (if ok then "ok" else "VIOLATED"))
    slo_rows;
  Printf.printf "  gate        %s\n"
    (if gate_ok then "PASS"
     else
       Printf.sprintf "FAIL (%d violation(s), %d verify failure(s))"
         (List.length violations) all_failures);
  Option.iter
    (fun path ->
      write_file path
        (json_value
           (jO
              [
                ("spec", Spec.to_json spec);
                ("trace", Workload.Trace.to_json trace);
                ( "measured",
                  jO
                    [
                      ("wall_s", jF wall);
                      (* timings under the two kernels differ ~5x *)
                      ("sha256_kernel", jS Aqv_crypto.Sha256.kernel);
                      ("throughput_rps", jF measured.Spec.throughput_rps);
                      ("latency_us_p50", jI measured.Spec.p50_us);
                      ("latency_us_p99", jI measured.Spec.p99_us);
                      ("latency_us_p999", jI measured.Spec.p999_us);
                      ("latency_us_max", jI (Histogram.max_value hist));
                      ("republished", jI (Histogram.count repub_hist));
                      ("republish_us_p50", jI (Histogram.percentile repub_hist 50));
                      ("republish_us_p99", jI (Histogram.percentile repub_hist 99));
                      ("deltas_shipped", jI (Stats.get stats "deltas_shipped"));
                      ( "per_replica",
                        jO (List.map (fun (n, c) -> (n, jI c)) replica_counts) );
                      ("verify_failures", jI all_failures);
                      ( "client_memo",
                        jO
                          [
                            ("record_hits", jI memo.Client.record_hits);
                            ("record_misses", jI memo.Client.record_misses);
                            ("node_hits", jI memo.Client.node_hits);
                            ("node_misses", jI memo.Client.node_misses);
                          ] );
                    ] );
                ( "slo",
                  Json.List
                    (List.map
                       (fun (bound, limit, actual, ok) ->
                         jO
                           [
                             ("bound", jS bound);
                             ("limit", jF limit);
                             ("actual", jF actual);
                             ("ok", jI (if ok then 1 else 0));
                           ])
                       slo_rows) );
                ( "violations",
                  Json.List (List.map (fun v -> jS v.Spec.bound) violations) );
                ("ok", jI (if gate_ok then 1 else 0));
              ])
        ^ "\n"))
    json_path;
  if not gate_ok then exit 1

(* ------------------------------ selftest ---------------------------- *)

(* Child processes run the real CLI commands via exec, not fork: the
   OCaml 5 runtime forbids Unix.fork once any domain has been spawned,
   and this process builds indexes through the parallel pool — exec is
   also the honest test, since each child recovers its store exactly
   like a production `aqv_net serve`. Ports come back via --port-file. *)
let spawn args =
  flush stdout;
  flush stderr;
  Unix.create_process Sys.executable_name
    (Array.of_list (Filename.basename Sys.executable_name :: args))
    Unix.stdin Unix.stdout Unix.stderr

let spawn_serve ?follow dir port_file =
  (try Sys.remove port_file with Sys_error _ -> ());
  spawn
    ([ "serve"; "--dir"; dir; "--port"; "0"; "--port-file"; port_file ]
    @ match follow with
      | Some port -> [ "--follow"; "127.0.0.1:" ^ string_of_int port ]
      | None -> [])

let spawn_route replica_ports port_file =
  (try Sys.remove port_file with Sys_error _ -> ());
  spawn
    [
      "route";
      "--replicas";
      String.concat ","
        (List.map (fun p -> "127.0.0.1:" ^ string_of_int p) replica_ports);
      "--port";
      "0";
      "--port-file";
      port_file;
    ]

(* no fixed sleep: poll for the child's port file, bounded *)
let await_port port_file =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec poll () =
    match int_of_string (String.trim (read_file port_file)) with
    | port -> port
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        failwith "selftest: server never published its port"
      else begin
        Unix.sleepf 0.02;
        poll ()
      end
  in
  poll ()

(* Poll a server's Get_stats until [key] reaches [target] — how the
   selftest awaits follower convergence without fixed sleeps. *)
let await_gauge ?(deadline_s = 20.) port key target =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec poll () =
    let v =
      match Roundtrip.call ~port Protocol.Get_stats with
      | Protocol.Stats kvs -> (
        match List.assoc_opt key kvs with Some v -> v | None -> -1)
      | _ | (exception _) -> -1
    in
    if v >= target then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

let run_selftest () =
  setup_logging ();
  let base = Filename.temp_file "aqv" "net" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  let dir = Filename.concat base "primary" in
  Unix.mkdir dir 0o755;
  let keypair, index = build_index 60 42 Ifmh.Multi_signature 1 in
  let _bundle_bytes = publish_to dir index keypair in
  Printf.printf "published: 60 records, multi-signature, epoch 1 -> %s\n" dir;
  flush stdout;
  let port_file = Filename.concat base "port.primary" in
  let pid = spawn_serve dir port_file in
  let port = await_port port_file in
  let bundle =
    Protocol.decode_bundle (Wire.reader (read_file (Filename.concat dir "bundle.bin")))
  in
  let ctx = Protocol.client_ctx bundle in
  let failures = ref 0 in
  let expect_verified label = function
    | true -> Printf.printf "  %-32s ok\n" label
    | false ->
      incr failures;
      Printf.printf "  %-32s FAILED\n" label
  in
  (* Roundtrip retries until the freshly bound server accepts *)
  let ask request = Roundtrip.call ~port request in
  let x = [| Q.of_decimal "0.37" |] in
  (* top-k over the wire — twice, so the second hit comes from the
     response cache and must still verify bit-for-bit *)
  let q1 = Query.top_k ~x ~k:5 in
  List.iter
    (fun label ->
      match ask (Protocol.Run_query q1) with
      | Protocol.Answer resp -> expect_verified label (Client.accepts ctx q1 resp)
      | _ -> expect_verified label false)
    [ "top-5 over TCP"; "top-5 again (cached)" ];
  (* range *)
  let q2 = Query.range ~x ~l:(Q.of_int 100) ~u:(Q.of_int 600) in
  (match ask (Protocol.Run_query q2) with
  | Protocol.Answer resp ->
    expect_verified "range over TCP" (Client.accepts ctx q2 resp)
  | _ -> expect_verified "range over TCP" false);
  (* rank *)
  (match ask (Protocol.Run_rank { x; record_id = 7 }) with
  | Protocol.Rank_answer (Some resp) ->
    expect_verified "rank over TCP"
      (Result.is_ok (Client.verify_rank ctx ~x ~record_id:7 resp))
  | _ -> expect_verified "rank over TCP" false);
  (* count *)
  let l = Q.of_int 100 and u = Q.of_int 600 in
  (match ask (Protocol.Run_count { x; l; u }) with
  | Protocol.Count_answer resp ->
    (match Count.verify ctx ~x ~l ~u resp with
    | Ok k ->
      Printf.printf "  %-32s ok (count = %d)\n" "count over TCP" k
    | Error _ -> expect_verified "count over TCP" false)
  | _ -> expect_verified "count over TCP" false);
  (* out-of-domain input must be refused, not crash the server *)
  (match ask (Protocol.Run_query (Query.top_k ~x:[| Q.of_int 9 |] ~k:1)) with
  | Protocol.Refused _ -> Printf.printf "  %-32s ok\n" "out-of-domain refused"
  | _ -> expect_verified "out-of-domain refused" false);
  (* in-band stats must reflect the workload above *)
  (match ask Protocol.Get_stats with
  | Protocol.Stats kvs ->
    let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
    expect_verified "stats: requests counted"
      (get "req_query" >= 3 && get "req_rank" >= 1 && get "req_count" >= 1);
    expect_verified "stats: cache hit+miss"
      (get "cache_hits" >= 1 && get "cache_misses" >= 1);
    expect_verified "stats: latency recorded" (get "latency_us_count" >= 5)
  | _ -> expect_verified "stats over TCP" false);
  (* durability: republish epoch 2, confirm it hit the log, then kill
     the server without mercy and restart from the store — recovery
     must land on the acked epoch, and the client insists on it *)
  let changes =
    [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 7; Q.of_int 21 |] ()) ]
  in
  let index2 = Ifmh.apply keypair changes index in
  (match ask (Protocol.Republish (Ifmh.delta ~changes index2)) with
  | Protocol.Republished 2 -> Printf.printf "  %-32s ok\n" "republish acked (epoch 2)"
  | _ -> expect_verified "republish acked (epoch 2)" false);
  (match ask Protocol.Get_stats with
  | Protocol.Stats kvs ->
    let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
    expect_verified "stats: delta logged before ack" (get "log_appends" >= 1)
  | _ -> expect_verified "stats: delta logged before ack" false);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let pid2 = spawn_serve dir port_file in
  let port2 = await_port port_file in
  let ask2 request = Roundtrip.call ~port:port2 request in
  let ctx2 = Client.with_min_epoch ctx 2 in
  (match ask2 (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "kill -9, restart: epoch 2 served" (Client.accepts ctx2 q1 resp)
  | _ -> expect_verified "kill -9, restart: epoch 2 served" false);
  (match ask2 Protocol.Get_stats with
  | Protocol.Stats kvs ->
    let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
    expect_verified "stats: recovery counted" (get "recoveries" = 1)
  | _ -> expect_verified "stats: recovery counted" false);
  (* --- replication topology: primary + two followers + router --- *)
  let fdir1 = Filename.concat base "f1" and fdir2 = Filename.concat base "f2" in
  let pf1 = Filename.concat base "port.f1" and pf2 = Filename.concat base "port.f2" in
  let pidf1 = spawn_serve ~follow:port2 fdir1 pf1 in
  let pidf2 = spawn_serve ~follow:port2 fdir2 pf2 in
  let portf1 = await_port pf1 and portf2 = await_port pf2 in
  expect_verified "followers bootstrapped (epoch 2)"
    (await_gauge portf1 "epoch" 2 && await_gauge portf2 "epoch" 2);
  let pfr = Filename.concat base "port.router" in
  let pidr = spawn_route [ port2; portf1; portf2 ] pfr in
  let portr = await_port pfr in
  (match Roundtrip.call ~port:portr (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "verified read via router" (Client.accepts ctx2 q1 resp)
  | _ -> expect_verified "verified read via router" false);
  (* republish epochs 3..5 to the primary while readers hammer the
     router; every routed reply must verify at min-epoch 2 *)
  let load_stop = Atomic.make false in
  let load_failures = ref 0 and load_ok = ref 0 and load_mu = Mutex.create () in
  let loaders =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            Roundtrip.with_connection ~port:portr (fun fd ->
                while not (Atomic.get load_stop) do
                  match Roundtrip.ask fd (Protocol.Run_query q1) with
                  | Protocol.Answer resp ->
                    Mutex.lock load_mu;
                    if Client.accepts ctx2 q1 resp then incr load_ok
                    else incr load_failures;
                    Mutex.unlock load_mu
                  | _ ->
                    Mutex.lock load_mu;
                    incr load_failures;
                    Mutex.unlock load_mu
                done))
          ())
  in
  let cur = ref index2 in
  let repub_ok = ref true in
  for e = 3 to 5 do
    let changes =
      [ Update.Modify (Record.make ~id:(e mod 60) ~attrs:[| Q.of_int (e * 3); Q.of_int (e * 11) |] ()) ]
    in
    let next = Ifmh.apply keypair changes !cur in
    (match ask2 (Protocol.Republish (Ifmh.delta ~changes next)) with
    | Protocol.Republished e' when e' = e -> ()
    | _ -> repub_ok := false);
    cur := next
  done;
  Atomic.set load_stop true;
  List.iter Thread.join loaders;
  expect_verified "republish under router load" !repub_ok;
  expect_verified "routed reads verified under load"
    (!load_failures = 0 && !load_ok > 0);
  expect_verified "followers converged (epoch 5)"
    (await_gauge portf1 "epoch" 5 && await_gauge portf2 "epoch" 5);
  let ctx5 = Client.with_min_epoch ctx 5 in
  (* each follower serves the owner's epoch-5 index, verifiably *)
  List.iter
    (fun (label, p) ->
      match Roundtrip.call ~port:p (Protocol.Run_query q1) with
      | Protocol.Answer resp -> expect_verified label (Client.accepts ctx5 q1 resp)
      | _ -> expect_verified label false)
    [ ("follower 1 serves epoch 5", portf1); ("follower 2 serves epoch 5", portf2) ];
  (* a replica must refuse wire republishes: only the stream mutates it *)
  (match
     Roundtrip.call ~port:portf1
       (Protocol.Republish (Ifmh.delta ~changes:[] !cur))
   with
  | Protocol.Refused _ -> Printf.printf "  %-32s ok\n" "replica refuses wire republish"
  | _ -> expect_verified "replica refuses wire republish" false);
  (* kill -9 one follower mid-topology: the router fails over, the
     primary keeps shipping, and a restart recovers + re-subscribes *)
  Unix.kill pidf1 Sys.sigkill;
  ignore (Unix.waitpid [] pidf1);
  let changes6 =
    [ Update.Modify (Record.make ~id:6 ~attrs:[| Q.of_int 66; Q.of_int 6 |] ()) ]
  in
  let index6 = Ifmh.apply keypair changes6 !cur in
  (match ask2 (Protocol.Republish (Ifmh.delta ~changes:changes6 index6)) with
  | Protocol.Republished 6 -> Printf.printf "  %-32s ok\n" "republish with a dead follower"
  | _ -> expect_verified "republish with a dead follower" false);
  let ctx6 = Client.with_min_epoch ctx 6 in
  (* wait for the surviving follower to apply epoch 6 before reading
     through the router: epoch-minimum routing only protects the client
     once the router's polled gauges catch up, so right after the ack
     the router may still believe every live replica is at epoch 5 and
     legitimately route to the follower — whose correctly signed
     epoch-5 answer the min-epoch-6 client would reject. Once the
     follower actually serves 6, any routing choice verifies. *)
  ignore (await_gauge portf2 "epoch" 6);
  (match Roundtrip.call ~port:portr (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "router fails over dead follower" (Client.accepts ctx6 q1 resp)
  | _ -> expect_verified "router fails over dead follower" false);
  let pidf1' = spawn_serve ~follow:port2 fdir1 pf1 in
  let portf1' = await_port pf1 in
  expect_verified "killed follower recovers + catches up (epoch 6)"
    (await_gauge portf1' "epoch" 6);
  (match Roundtrip.call ~port:portf1' (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "restarted follower verifies" (Client.accepts ctx6 q1 resp)
  | _ -> expect_verified "restarted follower verifies" false);
  (match ask2 Protocol.Get_stats with
  | Protocol.Stats kvs ->
    let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
    expect_verified "stats: deltas shipped" (get "deltas_shipped" >= 4)
  | _ -> expect_verified "stats: deltas shipped" false);
  (* graceful shutdown: SIGTERM must drain and exit 0, everywhere *)
  let graceful label pid =
    Unix.kill pid Sys.sigterm;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Printf.printf "  %-32s ok\n" label
    | _ -> expect_verified label false
  in
  graceful "graceful shutdown: router" pidr;
  graceful "graceful shutdown: follower 1" pidf1';
  graceful "graceful shutdown: follower 2" pidf2;
  graceful "graceful shutdown: primary" pid2;
  if !failures = 0 then print_endline "selftest: ALL OK"
  else begin
    Printf.printf "selftest: %d failure(s)\n" !failures;
    exit 1
  end

(* ----------------------------- cmdliner ----------------------------- *)

let dir_t = Arg.(value & opt string "/tmp/aqv-demo" & info [ "dir" ] ~docv:"DIR")
let port_t = Arg.(value & opt int 7464 & info [ "port" ] ~docv:"PORT")
let records_t = Arg.(value & opt int 100 & info [ "records"; "n" ] ~docv:"N")
let seed_t = Arg.(value & opt int 42 & info [ "seed" ])
let epoch_t = Arg.(value & opt int 0 & info [ "epoch" ])

let max_conns_t =
  Arg.(value & opt int 64 & info [ "max-conns" ] ~doc:"Concurrent connection limit.")

let cache_t =
  Arg.(value & opt int 1024 & info [ "cache" ] ~doc:"Response cache entries (0 disables).")

let idle_timeout_t =
  Arg.(value & opt float 10. & info [ "idle-timeout" ] ~doc:"Seconds to await a request.")

let read_timeout_t =
  Arg.(value & opt float 5. & info [ "read-timeout" ] ~doc:"Seconds to finish a frame.")

let write_timeout_t =
  Arg.(value & opt float 5. & info [ "write-timeout" ] ~doc:"Seconds to write a reply.")

let stats_interval_t =
  Arg.(value & opt float 60. & info [ "stats-interval" ] ~doc:"Stats log period (0 off).")

let fault_t =
  let doc =
    "Fault injection for robustness drills: SEED:DELAY:TRUNC:DROP \
     (probabilities in permille)."
  in
  let parse s =
    match String.split_on_char ':' s with
    | [ seed; d; tr; dr ] -> (
      try
        Ok
          (Some
             (Faults.create ~seed:(Int64.of_string seed)
                ~delay_permille:(int_of_string d)
                ~truncate_permille:(int_of_string tr)
                ~drop_permille:(int_of_string dr) ()))
      with _ -> Error (`Msg "bad --faults spec"))
    | _ -> Error (`Msg "expected SEED:DELAY:TRUNC:DROP")
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "none"
    | Some f -> Faults.pp ppf f
  in
  Arg.(value & opt (conv (parse, print)) None & info [ "faults" ] ~doc ~docv:"SPEC")

let scheme_t =
  let c = Arg.enum [ ("one", `One); ("multi", `Multi) ] in
  Arg.(value & opt c `One & info [ "scheme" ])

let qtype_t =
  let c = Arg.enum [ ("topk", `Topk); ("range", `Range); ("knn", `Knn) ] in
  Arg.(value & opt c `Topk & info [ "type" ])

let k_t = Arg.(value & opt int 3 & info [ "k" ])
let l_t = Arg.(value & opt string "0" & info [ "l" ])
let u_t = Arg.(value & opt string "100" & info [ "u" ])
let y_t = Arg.(value & opt string "0" & info [ "y" ])
let at_t = Arg.(value & opt string "0.5" & info [ "at"; "x" ])
let follow_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "follow" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a read replica of the given primary: bootstrap from it if \
           the store is empty, then tail its replication stream. Wire \
           republishes are refused.")

let port_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:"Write the actually bound port here once listening (for scripts).")

let fsck_json_t =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable report on stdout.")

let replicas_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "replicas" ] ~docv:"HOST:PORT,..."
        ~doc:"Comma-separated replica addresses to route over.")

let poll_interval_t =
  Arg.(
    value & opt float 0.5
    & info [ "poll-interval" ] ~docv:"S" ~doc:"Seconds between replica epoch polls.")

let publish_cmd =
  Cmd.v (Cmd.info "publish" ~doc:"Owner: build and write index.bin + bundle.bin.")
    Term.(const run_publish $ records_t $ seed_t $ scheme_t $ epoch_t $ dir_t)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Storage server: serve index.bin concurrently (primary, or --follow \
          replica).")
    Term.(
      const run_serve $ dir_t $ port_t $ max_conns_t $ cache_t
      $ idle_timeout_t $ read_timeout_t $ write_timeout_t $ stats_interval_t
      $ fault_t $ follow_t $ port_file_t)

let route_cmd =
  Cmd.v
    (Cmd.info "route"
       ~doc:"Epoch-aware front door: fan verified reads out over replicas.")
    Term.(const run_route $ replicas_t $ port_t $ poll_interval_t $ port_file_t)

let query_cmd =
  Cmd.v (Cmd.info "query" ~doc:"Data user: send a query, verify the reply.")
    Term.(const run_query $ dir_t $ port_t $ qtype_t $ k_t $ l_t $ u_t $ y_t $ at_t)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Dump the server's observability counters.")
    Term.(const run_stats $ port_t)

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Validate the durable store (snapshot + log) without modifying it.")
    Term.(const run_fsck $ dir_t $ fsck_json_t)

let compact_cmd =
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Fold the delta log into a fresh snapshot at the current epoch.")
    Term.(const run_compact $ dir_t)

let spec_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "spec" ] ~docv:"FILE" ~doc:"Declarative workload spec (JSON).")

let workload_replicas_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "replicas" ] ~docv:"N" ~doc:"Override the spec's replica count.")

let workload_seed_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the spec's seed.")

let workload_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report here.")

let workload_cmd =
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Run a declarative workload spec against the in-process rig and \
          gate on its declared SLOs (non-zero exit on violation).")
    Term.(
      const run_workload $ spec_t $ workload_replicas_t $ workload_seed_t
      $ workload_json_t)

let selftest_cmd =
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Spawn a primary, two followers, and a router; verify replies, \
          crash recovery, and replication end to end.")
    Term.(const run_selftest $ const ())

let () =
  let info = Cmd.info "aqv_net" ~doc:"verifiable analytic queries over TCP" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            publish_cmd;
            serve_cmd;
            route_cmd;
            query_cmd;
            stats_cmd;
            fsck_cmd;
            compact_cmd;
            workload_cmd;
            selftest_cmd;
          ]))
