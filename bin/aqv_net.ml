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
         cache, graceful shutdown on SIGINT/SIGTERM). Accepted
         republishes are fsync'd to wal.log before the ack, so a
         crashed server restarts at the last acked epoch.
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
         the read half of serve's recovery: validate snapshot + log,
         run the same replay, report what a restart would recover (any
         torn tail included) and write nothing

     aqv_net compact --dir /tmp/aqv
         fold the delta log into a fresh snapshot at the current epoch

     aqv_net query --dir /tmp/aqv --port 7464 --type topk --k 5 --at 0.3
         data user: read bundle.bin, send the query, VERIFY the reply

     aqv_net stats --port 7464
         dump the server's observability counters (in-band request)

     aqv_net workload --spec workloads/smoke.json --json out.json
         declarative traffic model: expand the spec's seed-fixed query
         trace (zipfian hot-set popularity, mixed top-k/range/KNN,
         open-loop republishes), replay it against a spawned `serve`
         (plus `serve --follow` replicas and a `route` in front), and
         gate on the spec's declared SLOs — non-zero exit on any violation

     aqv_net selftest
         spawn a server, then followers and a router, and run owner +
         client against them (cache, stats, crash recovery, failover,
         SIGTERM drain), exit non-zero on any failure

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
let write_file path contents = Aqv_store.Io.(write_file unix ~path contents)
let read_file = Aqv_store.Io.unix.read

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
    (String.length (read_file (Store.snapshot_path dir)));
  Printf.printf "  wal.log    fresh (accepted republishes land here)\n";
  Printf.printf "  bundle.bin %d bytes (for data users)\n" bundle_bytes

(* ------------------------------- serve ------------------------------ *)

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
   primary: fetch a full snapshot over the wire and publish it locally
   (durable before serving, like any publish; [Store.publish] creates
   the dir). It serves the index just fetched (reopening the store
   would load the snapshot it wrote a second time), and there is no
   recovery to report. *)
let open_or_bootstrap dir follow =
  match (follow, Sys.file_exists (Store.snapshot_path dir)) with
  | Some (host, port), false ->
    Printf.printf "bootstrapping from %s:%d ...\n%!" (Unix.string_of_inet_addr host) port;
    let index = Follower.bootstrap ~host ~port () in
    Ok (Store.publish ~dir index, index, None)
  | _ -> Result.map (fun (store, index, r) -> (store, index, Some r)) (Store.open_dir dir)

let run_serve dir port max_conns follow port_file =
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
        Engine.default_config with
        port;
        max_conns;
        store = Some store;
        accept_republish = Option.is_none follow;
        publisher = Some (Hub.publisher hub);
      }
    in
    let engine = Engine.create config index in
    (match recovery with
    | None -> Printf.printf "bootstrapped at epoch %d\n" (Ifmh.epoch index)
    | Some r ->
      let stats = Engine.stats engine in
      Stats.incr stats Recoveries;
      Stats.add stats Frames_coalesced r.Store.replayed;
      if r.Store.torn_tail_bytes > 0 then Stats.incr stats Torn_tail_truncations;
      Printf.printf
        "recovered epoch %d (snapshot epoch %d, %d delta(s) replayed, \
         coalesced into one rebuild, %d skipped, %d torn byte(s) truncated)\n"
        r.Store.final_epoch r.Store.snapshot_epoch r.Store.replayed r.Store.skipped
        r.Store.torn_tail_bytes);
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
    Printf.printf "serving %d records on 127.0.0.1:%d (max %d conns)%s\n%!"
      (Table.size (Ifmh.table index))
      (Engine.port engine)
      config.Engine.max_conns
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

let run_route replicas port port_file =
  setup_logging ();
  let replicas = List.map parse_hostport (String.split_on_char ',' replicas) in
  let router = Router.create ~port ~replicas () in
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
              ("scheme", jS (Ifmh.scheme_name r.Store.scheme));
              ("snapshot_epoch", jI r.Store.snapshot_epoch);
              ("snapshot_bytes", jI r.Store.snapshot_bytes);
              ("n_leaves", jI r.Store.n_leaves);
              ("log_frames", jI r.Store.log_frames);
              ("replayed", jI r.Store.replayed);
              ("skipped", jI r.Store.skipped);
              ("frames_coalesced", jI r.Store.replayed);
              ("final_epoch", jI r.Store.final_epoch);
              ("torn_tail_bytes", jI r.Store.torn_tail_bytes);
            ]))
  | Ok r ->
    Printf.printf "fsck %s: OK\n" dir;
    Printf.printf "  scheme          %s\n" (Ifmh.scheme_name r.Store.scheme);
    Printf.printf "  snapshot        epoch %d, %d bytes, %d leaves\n"
      r.Store.snapshot_epoch r.Store.snapshot_bytes r.Store.n_leaves;
    Printf.printf "  log             %d frame(s): %d replayable, %d stale\n"
      r.Store.log_frames r.Store.replayed r.Store.skipped;
    Printf.printf "  replay          %d frame(s) coalesced into one rebuild\n"
      r.Store.replayed;
    Printf.printf "  final epoch     %d\n" r.Store.final_epoch;
    if r.Store.torn_tail_bytes > 0 then
      Printf.printf "  torn tail       %d byte(s), truncated on next serve\n"
        r.Store.torn_tail_bytes

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

(* ----------------------------- processes ---------------------------- *)

(* [workload] and [selftest] stand their topology up one way: each role
   is a child process running the real CLI command, via exec, not fork.
   The OCaml 5 runtime forbids Unix.fork once any domain has been
   spawned, and this process builds indexes through the parallel pool;
   exec is also the honest test, since each child recovers its store
   exactly like a production `aqv_net serve`. Ports come back via
   --port-file. A child's stdout goes to our stderr, so our stdout
   carries only our own report. *)

(* A topology's temp dir (stores, port files) and its children not yet
   reaped, newest first. *)
type scratch = { base : string; mutable live : int list }

type child = { pid : int; port : int }

let loopback c = "127.0.0.1:" ^ string_of_int c.port

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Wait for [pid] to exit, and SIGKILL it if it has not within 10 s (a
   SIGTERM drain is bounded at 5 s). *)
let reap pid =
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait deadline
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      wait infinity
    | _, status -> status
  in
  wait (Unix.gettimeofday () +. 10.)

(* Signal child [pid] and reap it; the status says how it ended. *)
let stop ?(signal = Sys.sigterm) sc pid =
  sc.live <- List.filter (( <> ) pid) sc.live;
  Unix.kill pid signal;
  reap pid

(* Run [f] on a fresh temp dir. However [f] ends, by a return or a
   raise, every child still live gets SIGTERM and is reaped, and the
   dir is removed. A caller that exits non-zero does so after
   [with_scratch] returns: [exit] skips a [finally]. SIGINT and SIGTERM
   raise, so they unwind through the cleanup too. SIGPIPE is ignored
   so that a child that dies surfaces as EPIPE in the writer rather
   than killing us before the cleanup. *)
let with_scratch f =
  let break _ = raise Sys.Break in
  Sys.set_signal Sys.sigint (Sys.Signal_handle break);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle break);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sc = { base = Filename.temp_dir "aqv" "net"; live = [] } in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> ignore (stop sc pid)) sc.live;
      rm_rf sc.base)
    (fun () -> f sc)

(* Spawn role [name] running [args] on an ephemeral port, and poll (no
   fixed sleep) for the port it reports in the port file "port.<name>".
   Recovering a large store rebuilds its whole structure (about 20 s
   for read-heavy's 2 000 records), hence the long bound; a child that
   exits first fails at once. *)
let start sc name args =
  let port_file = Filename.concat sc.base ("port." ^ name) in
  (try Sys.remove port_file with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list
         ((Filename.basename Sys.executable_name :: args)
         @ [ "--port"; "0"; "--port-file"; port_file ]))
      Unix.stdin Unix.stderr Unix.stderr
  in
  sc.live <- pid :: sc.live;
  let deadline = Unix.gettimeofday () +. 300. in
  let rec poll () =
    match int_of_string (String.trim (read_file port_file)) with
    | port -> { pid; port }
    | exception _ ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        sc.live <- List.filter (( <> ) pid) sc.live;
        failwith ("aqv_net: " ^ name ^ " exited before publishing its port")
      end
      else if Unix.gettimeofday () > deadline then
        failwith ("aqv_net: " ^ name ^ " published no port in 300 s")
      else begin
        Unix.sleepf 0.02;
        poll ()
      end
  in
  poll ()

(* `serve` over the store dir [name] in the scratch dir; a replica of
   [follow] when given. *)
let start_serve ?follow ?(args = []) sc name =
  start sc name
    ([ "serve"; "--dir"; Filename.concat sc.base name ]
    @ (match follow with Some p -> [ "--follow"; loopback p ] | None -> [])
    @ args)

(* One counter of a server's in-band stats; -1 when it is absent or the
   server cannot be reached. *)
let gauge port key =
  match Roundtrip.call ~port Protocol.Get_stats with
  | Protocol.Stats kvs -> Option.value (List.assoc_opt key kvs) ~default:(-1)
  | _ | (exception _) -> -1

(* Poll a server's gauge until [key] reaches [target]: how convergence
   is awaited without fixed sleeps. *)
let await_gauge port key target =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec poll () =
    if gauge port key >= target then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* [n] followers of [primary] (store dirs f1..fn), then a router in
   front of the primary and them. [converged] says whether every
   follower reached [epoch] before the router started. *)
let start_replicas ?args sc ~primary ~epoch n =
  let followers =
    List.init n (fun i -> start_serve ?args ~follow:primary sc (Printf.sprintf "f%d" (i + 1)))
  in
  let converged = List.for_all (fun f -> await_gauge f.port "epoch" epoch) followers in
  let router =
    start sc "router"
      [ "route"; "--replicas"; String.concat "," (List.map loopback (primary :: followers)) ]
  in
  (followers, router, converged)

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
   republish contents — all fixed by the spec seed), publish the
   spec's index to a temp store, spawn a primary `serve` on it (with
   followers and a router in front when the spec asks for replicas),
   replay the trace against the front door, and gate the measured
   numbers on the spec's declared SLOs. Exit 2 on a bad spec, 1 on an
   SLO violation or a verification failure, 0 when the gate passes.

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
     runs here, before the servers and the timed window: [Ifmh.apply]
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
  let wall, deltas_shipped, replica_counts =
    with_scratch (fun sc ->
        ignore (publish_to (Filename.concat sc.base "primary") index keypair);
        let args = [ "--max-conns"; string_of_int (spec.Spec.clients + 8) ] in
        let primary = start_serve ~args sc "primary" in
        (* the front door: the router when replicas > 1, the primary
           otherwise; [replicas] is what the router spreads reads over *)
        let port, replicas =
          if spec.Spec.replicas = 1 then (primary.port, [])
          else
            let followers, router, converged =
              start_replicas ~args sc ~primary ~epoch:1 (spec.Spec.replicas - 1)
            in
            if not converged then failwith "aqv_net: a follower never reached epoch 1";
            (router.port, primary :: followers)
        in
        (* replay client [i]'s pre-generated op stream; every reply is
           verified, every latency observed *)
        let replay i =
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
              send_republish ~primary_port:primary.port ~repub_hist ~repub_failures delta)
            deltas
        in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init spec.Spec.clients (fun i ->
              Thread.create (fun () -> hists.(i) <- replay i) ())
        in
        let republisher =
          if spec.Spec.republishes > 0 then Some (Thread.create repub_thread ())
          else None
        in
        List.iter Thread.join threads;
        let wall = Unix.gettimeofday () -. t0 in
        Option.iter Thread.join republisher;
        (* a republisher that died early can never fake a PASS: every
           scheduled update that was neither acked nor already counted
           as a failure is a failure *)
        let missing =
          spec.Spec.republishes - Histogram.count repub_hist - !repub_failures
        in
        if missing > 0 then repub_failures := !repub_failures + missing;
        ( wall,
          gauge primary.port "deltas_shipped",
          List.map (fun r -> (loopback r, gauge r.port "req_query")) replicas ))
  in
  let hist = Array.fold_left Histogram.merge (Histogram.create ()) hists in
  let total = spec.Spec.clients * spec.Spec.requests_per_client in
  let measured =
    {
      Spec.throughput_rps = float_of_int total /. wall;
      p50_us = Histogram.percentile_permille hist 500;
      p99_us = Histogram.percentile_permille hist 990;
      p999_us = Histogram.percentile_permille hist 999;
    }
  in
  let violations = Spec.evaluate_slo spec.Spec.slo measured in
  (* a client whose connection died (its server gone) leaves ops
     unobserved; each is a failure, so a lost child cannot fake a PASS *)
  let all_failures = !failures + !repub_failures + (total - Histogram.count hist) in
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
  Printf.printf
    "  digest memo records %d hits / %d misses, FMH nodes %d hits / %d misses, signatures %d \
     hits / %d misses\n"
    memo.Client.record_hits memo.Client.record_misses memo.Client.node_hits
    memo.Client.node_misses memo.Client.signature_hits memo.Client.signature_misses;
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
                      ("deltas_shipped", jI deltas_shipped);
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
                            ("signature_hits", jI memo.Client.signature_hits);
                            ("signature_misses", jI memo.Client.signature_misses);
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

let selftest sc =
  let dir = Filename.concat sc.base "primary" in
  let keypair, index = build_index 60 42 Ifmh.Multi_signature 1 in
  let _bundle_bytes = publish_to dir index keypair in
  Printf.printf "published: 60 records, multi-signature, epoch 1 -> %s\n" dir;
  let primary = start_serve sc "primary" in
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
  let ask request = Roundtrip.call ~port:primary.port request in
  let x = [| Q.of_decimal "0.37" |] in
  (* top-k over the wire three times: the second ask stores the reply
     in the response cache, the third is served from it and must still
     verify bit-for-bit *)
  let q1 = Query.top_k ~x ~k:5 in
  List.iter
    (fun label ->
      match ask (Protocol.Run_query q1) with
      | Protocol.Answer resp -> expect_verified label (Client.accepts ctx q1 resp)
      | _ -> expect_verified label false)
    [ "top-5 over TCP"; "top-5 again"; "top-5 again (cached)" ];
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
  let get k = gauge primary.port k in
  expect_verified "stats: requests counted"
    (get "req_query" >= 3 && get "req_rank" >= 1 && get "req_count" >= 1);
  expect_verified "stats: cache hit+miss" (get "cache_hits" >= 1 && get "cache_misses" >= 1);
  expect_verified "stats: latency recorded" (get "latency_us_count" >= 5);
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
  expect_verified "stats: delta logged before ack" (get "log_appends" >= 1);
  ignore (stop ~signal:Sys.sigkill sc primary.pid);
  let primary2 = start_serve sc "primary" in
  let port2 = primary2.port in
  let ask2 request = Roundtrip.call ~port:port2 request in
  let ctx2 = Client.with_min_epoch ctx 2 in
  (match ask2 (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "kill -9, restart: epoch 2 served" (Client.accepts ctx2 q1 resp)
  | _ -> expect_verified "kill -9, restart: epoch 2 served" false);
  expect_verified "stats: recovery counted" (gauge port2 "recoveries" = 1);
  (* --- replication topology: primary + two followers + router --- *)
  let followers, router, converged = start_replicas sc ~primary:primary2 ~epoch:2 2 in
  expect_verified "followers bootstrapped (epoch 2)" converged;
  let f1 = List.nth followers 0 and f2 = List.nth followers 1 in
  (* a follower bootstrapped over the wire recovered nothing *)
  expect_verified "stats: bootstrap not a recovery"
    (gauge f1.port "recoveries" = 0 && gauge port2 "recoveries" = 1);
  (match Roundtrip.call ~port:router.port (Protocol.Run_query q1) with
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
            Roundtrip.with_connection ~port:router.port (fun fd ->
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
    (await_gauge f1.port "epoch" 5 && await_gauge f2.port "epoch" 5);
  let ctx5 = Client.with_min_epoch ctx 5 in
  (* each follower serves the owner's epoch-5 index, verifiably *)
  List.iter
    (fun (label, p) ->
      match Roundtrip.call ~port:p (Protocol.Run_query q1) with
      | Protocol.Answer resp -> expect_verified label (Client.accepts ctx5 q1 resp)
      | _ -> expect_verified label false)
    [ ("follower 1 serves epoch 5", f1.port); ("follower 2 serves epoch 5", f2.port) ];
  (* a replica must refuse wire republishes: only the stream mutates it *)
  (match
     Roundtrip.call ~port:f1.port
       (Protocol.Republish (Ifmh.delta ~changes:[] !cur))
   with
  | Protocol.Refused _ -> Printf.printf "  %-32s ok\n" "replica refuses wire republish"
  | _ -> expect_verified "replica refuses wire republish" false);
  (* kill -9 one follower mid-topology: the router fails over, the
     primary keeps shipping, and a restart recovers + re-subscribes *)
  ignore (stop ~signal:Sys.sigkill sc f1.pid);
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
  ignore (await_gauge f2.port "epoch" 6);
  (match Roundtrip.call ~port:router.port (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "router fails over dead follower" (Client.accepts ctx6 q1 resp)
  | _ -> expect_verified "router fails over dead follower" false);
  let f1' = start_serve ~follow:primary2 sc "f1" in
  expect_verified "killed follower recovers + catches up (epoch 6)"
    (await_gauge f1'.port "epoch" 6);
  (match Roundtrip.call ~port:f1'.port (Protocol.Run_query q1) with
  | Protocol.Answer resp ->
    expect_verified "restarted follower verifies" (Client.accepts ctx6 q1 resp)
  | _ -> expect_verified "restarted follower verifies" false);
  expect_verified "stats: deltas shipped" (gauge port2 "deltas_shipped" >= 4);
  (* graceful shutdown: SIGTERM must drain and exit 0, everywhere *)
  let graceful label c =
    match stop sc c.pid with
    | Unix.WEXITED 0 -> Printf.printf "  %-32s ok\n" label
    | _ -> expect_verified label false
  in
  graceful "graceful shutdown: router" router;
  graceful "graceful shutdown: follower 1" f1';
  graceful "graceful shutdown: follower 2" f2;
  graceful "graceful shutdown: primary" primary2;
  !failures

let run_selftest () =
  setup_logging ();
  match with_scratch selftest with
  | 0 -> print_endline "selftest: ALL OK"
  | failures ->
    Printf.printf "selftest: %d failure(s)\n" failures;
    exit 1

(* ----------------------------- cmdliner ----------------------------- *)

let dir_t = Arg.(value & opt string "/tmp/aqv-demo" & info [ "dir" ] ~docv:"DIR")
let port_t = Arg.(value & opt int 7464 & info [ "port" ] ~docv:"PORT")
let records_t = Arg.(value & opt int 100 & info [ "records"; "n" ] ~docv:"N")
let seed_t = Arg.(value & opt int 42 & info [ "seed" ])
let epoch_t = Arg.(value & opt int 0 & info [ "epoch" ])

let max_conns_t =
  Arg.(value & opt int 64 & info [ "max-conns" ] ~doc:"Concurrent connection limit.")

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
      const run_serve $ dir_t $ port_t $ max_conns_t $ follow_t $ port_file_t)

let route_cmd =
  Cmd.v
    (Cmd.info "route"
       ~doc:"Epoch-aware front door: fan verified reads out over replicas.")
    Term.(const run_route $ replicas_t $ port_t $ port_file_t)

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
         "Run a declarative workload spec against spawned server processes \
          and gate on its declared SLOs (non-zero exit on violation).")
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
