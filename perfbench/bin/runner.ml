(* The runner: one run of one workload. It spawns the owner and server
   roles from its own executable, before any domain exists, and is
   itself the load generator — a verifying user's process, which holds
   no pool. Everything it reports is measured here or read from the
   children's own reports. *)

open Aqv
open Perfbench_kit
module Roundtrip = Aqv_serve.Roundtrip
module Trace = Aqv_db.Workload.Trace

let log fmt = Printf.ksprintf prerr_endline fmt
let now = Unix.gettimeofday

(* ---------------------------- children ------------------------------ *)

let live = ref []

(* Every role gets one domain: an idle worker domain of the default pool
   spins at every stop-the-world collection, so the server's CPU figures
   tracked hypervisor steal instead of the work done. *)
let child_env =
  lazy
    (Array.append [| "AQV_DOMAINS=1" |]
       (Array.of_list
          (List.filter
             (fun kv -> not (String.starts_with ~prefix:"AQV_DOMAINS=" kv))
             (Array.to_list (Unix.environment ())))))

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stderr) args =
  flush_all ();
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      (Lazy.force child_env) stdin stdout Unix.stderr
  in
  live := pid :: !live;
  pid

(* Role placement on a machine with two or more CPUs: every role runs
   on the last CPU. A request and its reply never wait for the other CPU
   to be woken — on a virtual machine that wake-up waits on the
   hypervisor and made throughput track host load — and the speed kernel
   (see Speed) times the one CPU all the work runs on: the speeds of two
   vCPUs wander apart. The roles take turns: the owner works while no
   read runs, the server while the load generator waits. Best effort:
   without taskset the roles run unpinned. *)
let cpus = lazy (try Domain.recommended_domain_count () with _ -> 1)

let pin pid cpu =
  if Lazy.force cpus >= 2 then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    (match
       Unix.create_process "taskset"
         [| "taskset"; "-p"; "-c"; string_of_int cpu; string_of_int pid |]
         Unix.stdin null Unix.stderr
     with
    | p -> ignore (Unix.waitpid [] p)
    | exception Unix.Unix_error _ -> ());
    Unix.close null
  end

let serving_cpu () = Lazy.force cpus - 1

(* Wait for [pid] to exit, killing it if it has not within [grace]
   seconds. *)
let reap ?(grace = 30.) pid =
  let deadline = now () +. grace in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ();
  live := List.filter (( <> ) pid) !live

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !live;
  live := []

type owner = { o_pid : int; o_in : out_channel; o_out : in_channel }

let spawn_owner ~workload ~seed ~dir ~spans =
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let pid =
    spawn ~stdin:r_in ~stdout:w_out
      ([ "owner"; "--workload"; workload; "--seed"; string_of_int seed; "--dir"; dir ]
      @ match spans with Some p -> [ "--spans"; p ] | None -> [])
  in
  Unix.close r_in;
  Unix.close w_out;
  pin pid (serving_cpu ());
  { o_pid = pid; o_in = Unix.out_channel_of_descr w_in; o_out = Unix.in_channel_of_descr r_out }

let tell o fmt =
  Printf.ksprintf
    (fun s ->
      output_string o.o_in (s ^ "\n");
      flush o.o_in)
    fmt

let owner_line o =
  match In_channel.input_line o.o_out with
  | Some l -> String.split_on_char ' ' l
  | None -> failwith "owner exited early"

let quit_owner o =
  tell o "quit";
  let ms = Lines.read_metrics ~stop:"bye" o.o_out in
  close_out_noerr o.o_in;
  close_in_noerr o.o_out;
  reap o.o_pid;
  ms

(* ------------------------------ set-up ------------------------------ *)

type rig = { owner : owner; server : int; port : int; dir : string; snapshot_bytes : int }

let await_port ~server port_file =
  let deadline = now () +. 120. in
  let rec poll () =
    match int_of_string (String.trim (Measure.read_file port_file)) with
    | port -> port
    | exception _ ->
      if now () > deadline then failwith "server never listened";
      (match Unix.waitpid [ Unix.WNOHANG ] server with
      | 0, _ -> ()
      | _ -> failwith "server exited during recovery");
      Unix.sleepf 0.002;
      poll ()
  in
  poll ()

(* Owner keygen + build + publish, then server recovery, until the
   engine listens: what a deployment pays before its first query. *)
let set_up ~workload ~seed ~dir ~spans =
  Unix.mkdir dir 0o755;
  let owner =
    spawn_owner ~workload ~seed ~dir ~spans:(Option.map (fun p -> p ^ ".owner") spans)
  in
  let snapshot_bytes =
    match owner_line owner with
    | [ "published"; b ] -> int_of_string b
    | l -> failwith ("owner: " ^ String.concat " " l)
  in
  let port_file = Filename.concat dir "port" in
  let server =
    spawn
      ([ "serve"; "--dir"; dir; "--port-file"; port_file ]
      @ match spans with Some p -> [ "--spans"; p ^ ".server" ] | None -> [])
  in
  pin server (serving_cpu ());
  let port = await_port ~server port_file in
  { owner; server; port; dir; snapshot_bytes }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let tear_down rig =
  stop_server rig.server;
  ignore (quit_owner rig.owner)

(* ------------------------------ window ------------------------------ *)

let stats port =
  match Roundtrip.call ~port Protocol.Get_stats with
  | Protocol.Stats kvs as r -> (kvs, r)
  | _ -> failwith "Get_stats refused"

let stat kvs k = match List.assoc_opt k kvs with Some v -> v | None -> 0

let frame_bytes reply =
  let wb = Aqv_util.Wire.writer () in
  Protocol.encode_reply wb reply;
  4 + Aqv_util.Wire.size wb

let client_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type window = {
  samples : Report.sample array;
  slices : Slices.t list;  (** untraced runs: the window in one-second slices *)
  sent : int;  (** requests sent, warm-up included *)
  failed : int;
  wall_s : float;
  server_cpu_s : float;
  client_cpu_s : float;
  stats0 : (string * int) list;
  stats1 : (string * int) list;
  stats0_frame : int;
  steal : float;  (** share of CPU time the hypervisor took during the window *)
}

(* Traced slices alternate with untraced ones, so both see the same
   cache state and the same background; their difference is the
   tracing overhead. *)
let slice_s = 0.5

(* Reads before the window opens, so that it starts with warm caches. *)
let warm_up_s = 1.

(* Closed-loop reads over one connection for [seconds]: each reply is
   verified before the next request goes out. An untraced window is cut
   into one-second slices at request boundaries. *)
let read_window ~rig ~bundle ~ops ~seconds ~traced ~rec_ =
  let plain = Protocol.client_ctx bundle in
  let cur_verify = ref Spans.no_parent in
  let timed_ctx =
    Client.with_min_epoch
      (Client.make_ctx ~template:bundle.Protocol.template ~domain:bundle.Protocol.domain
         ~verify_signature:(fun d s ->
           let t0 = now () in
           let ok = Aqv_crypto.Signer.verifier bundle.Protocol.public d s in
           ignore (Spans.record rec_ ~parent:!cur_verify "signer.verify" t0 (now ()));
           ok))
      bundle.Protocol.epoch
  in
  let sent = ref 0 and failed = ref 0 and acc = ref [] in
  let t_start = ref 0. in
  let measuring = ref false in
  let slices = ref [] in
  let slice_lat = ref [] and slice_n = ref 0 in
  let slice_t0 = ref 0. and slice_srv0 = ref 0. and slice_cli0 = ref 0. in
  let speed_units = ref 0 and speed_cpu = ref 0. and speed_wall = ref 0. in
  let open_slice t =
    slice_t0 := t;
    slice_srv0 := Measure.proc_threads_cpu_s rig.server;
    slice_cli0 := client_cpu_s ();
    slice_lat := [];
    slice_n := 0;
    speed_units := 0;
    speed_cpu := 0.;
    speed_wall := 0.
  in
  let close_slice t =
    let srv = Measure.proc_threads_cpu_s rig.server and cli = client_cpu_s () in
    slices :=
      {
        Slices.queries = !slice_n;
        wall_s = t -. !slice_t0 -. !speed_wall;
        lat_s = Array.of_list !slice_lat;
        server_cpu_s = srv -. !slice_srv0;
        client_cpu_s = cli -. !slice_cli0 -. !speed_cpu;
        speed_units = !speed_units;
        speed_cpu_s = !speed_cpu;
      }
      :: !slices
  in
  (* one unit of the speed kernel after each reply of an untraced
     window, while the server idles: the CPU's speed, sampled at the
     rate the queries run *)
  let time_speed () =
    let w0 = now () in
    let c = Speed.unit_cpu_s () in
    speed_wall := !speed_wall +. (now () -. w0);
    speed_cpu := !speed_cpu +. c;
    incr speed_units
  in
  let one fd =
    let q = Workloads.query_of_op ops.(!sent mod Array.length ops) in
    let req = !sent in
    incr sent;
    let t0 = now () in
    let in_trace =
      traced && !measuring && int_of_float ((t0 -. !t_start) /. slice_s) mod 2 = 1
    in
    let ok =
      if not in_trace then
        match Roundtrip.ask fd (Protocol.Run_query q) with
        | Protocol.Answer r -> Result.is_ok (Client.verify plain q r)
        | _ -> false
      else
        Spans.time rec_ ~req ~start:t0 "query" (fun qid ->
            match
              Spans.time rec_ ~parent:qid ~req "roundtrip.ask" (fun _ ->
                  Roundtrip.ask fd (Protocol.Run_query q))
            with
            | Protocol.Answer r ->
              Spans.time rec_ ~parent:qid ~req "client.verify" (fun id ->
                  cur_verify := id;
                  Result.is_ok (Client.verify timed_ctx q r))
            | _ -> false)
    in
    let t2 = now () in
    if not ok then incr failed
    else if !measuring then begin
      acc := { Report.at = t0 -. !t_start; lat = t2 -. t0; traced = in_trace } :: !acc;
      slice_lat := (t2 -. t0) :: !slice_lat;
      incr slice_n;
      if not traced then time_speed ()
    end
  in
  (* One connection for warm-up and window: the server's session thread
     lives across every slice, so its CPU time is never lost with it. *)
  let t_stop = ref 0. in
  let cpu_srv0 = ref 0. and cpu_cli0 = ref 0. and steal0 = ref (0, 0) in
  let stats0 = ref ([], Protocol.Stats []) in
  let reads fd =
    let until = now () +. warm_up_s in
    while now () < until do one fd done;
    stats0 := stats rig.port;
    cpu_srv0 := Measure.proc_cpu_s rig.server;
    cpu_cli0 := client_cpu_s ();
    steal0 := Measure.steal_ticks ();
    t_start := now ();
    measuring := true;
    let t_end = !t_start +. seconds in
    let next_cut = ref (!t_start +. 1.) in
    if not traced then open_slice !t_start;
    while now () < t_end do
      if not traced then begin
        let t = now () in
        if t >= !next_cut then begin
          close_slice t;
          open_slice t;
          next_cut := !next_cut +. 1.
        end
      end;
      one fd
    done;
    t_stop := now ();
    if not traced then close_slice !t_stop
  in
  (match Roundtrip.with_connection ~port:rig.port reads with
  | () -> ()
  | exception e ->
    incr failed;
    log "read connection: %s" (Printexc.to_string e));
  if !t_stop = 0. then t_stop := now ();
  measuring := false;
  let cpu_srv1 = Measure.proc_cpu_s rig.server and cpu_cli1 = client_cpu_s () in
  let kvs1, _ = stats rig.port in
  let steal1 = Measure.steal_ticks () in
  let kvs0, r0 = !stats0 in
  let steal0 = !steal0 in
  {
    samples = Array.of_list !acc;
    slices = List.rev !slices;
    sent = !sent;
    failed = !failed;
    wall_s = !t_stop -. !t_start;
    server_cpu_s = cpu_srv1 -. !cpu_srv0;
    client_cpu_s = cpu_cli1 -. !cpu_cli0;
    stats0 = kvs0;
    stats1 = kvs1;
    stats0_frame = frame_bytes r0;
    steal =
      float_of_int (fst steal1 - fst steal0) /. float_of_int (max 1 (snd steal1 - snd steal0));
  }

(* ----------------------------- updates ------------------------------ *)

(* Owner updates, back to back, once the read window has closed: the
   owner's trace digest first (it must equal the load generator's), then
   one verdict line per update. *)
let run_updates rig ~(updates : Trace.t) ~count =
  tell rig.owner "republish %d %d" rig.port count;
  let digest_ok =
    match owner_line rig.owner with
    | [ "trace"; sha ] when sha = updates.Trace.sha256_hex -> true
    | l ->
      log "owner trace differs: %s" (String.concat " " l);
      false
  in
  let acks = ref [] and failed = ref 0 in
  let rec go () =
    match owner_line rig.owner with
    | [ "done" ] -> ()
    | [ "acked"; _; ms ] ->
      acks := (float_of_string ms, now ()) :: !acks;
      go ()
    | "failed" :: i :: why ->
      incr failed;
      log "update %s failed: %s" i (String.concat " " why);
      go ()
    | l -> failwith ("owner: " ^ String.concat " " l)
  in
  go ();
  (digest_ok, List.rev !acks, !failed + max 0 (count - List.length !acks - !failed))

(* ------------------------------ run --------------------------------- *)

let run ~workload ~seed ~seconds ~traced =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let table = Workloads.table w in
  let traffic = Workloads.traffic w table in
  let updates = Workloads.updates w table ~seed in
  let pinned what (t : Trace.t) sha =
    let ok = t.Trace.sha256_hex = sha in
    if not ok then log "%s trace digest %s differs from the pinned %s" what t.Trace.sha256_hex sha;
    ok
  in
  let digest_ok =
    pinned "traffic" traffic w.traffic_sha256
    && (seed <> Workloads.default_seed || pinned "updates" updates w.updates_sha256)
  in
  let ops = Workloads.reads traffic ~seed in
  let base = Filename.concat ".perfbench" (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  if Sys.file_exists base then rm_rf base;
  Unix.mkdir base 0o755;
  pin (Unix.getpid ()) (serving_cpu ());
  let rec_ = Spans.create () in
  (* set-up, several times: untraced runs report the median; a traced
     run times one untraced and one traced set-up *)
  let reps = if traced then 2 else 3 in
  let setups = ref [] in
  let rig = ref None in
  let probe = Speed.Probe.create () in
  Speed.Probe.start probe;
  for k = 1 to reps do
    Option.iter tear_down !rig;
    let spans = if traced && k = reps then Some (Filename.concat base "spans") else None in
    let t0 = now () in
    let r = set_up ~workload ~seed ~dir:(Filename.concat base (Printf.sprintf "rep%d" k)) ~spans in
    let t1 = now () in
    if spans <> None then ignore (Spans.record rec_ "setup" t0 t1);
    setups := (t0, t1) :: !setups;
    rig := Some r
  done;
  Speed.Probe.stop probe;
  let rig = Option.get !rig in
  let setups = Array.of_list (List.rev !setups) in
  let setup_times = Array.map (fun (t0, t1) -> t1 -. t0) setups in
  let bundle =
    Protocol.decode_bundle
      (Aqv_util.Wire.reader (Measure.read_file (Filename.concat rig.dir "bundle.bin")))
  in
  let win = read_window ~rig ~bundle ~ops ~seconds ~traced ~rec_ in
  let rss_mb = Measure.proc_hwm_mb rig.server in
  Speed.Probe.start probe;
  let owner_digest_ok, acks, updates_failed =
    run_updates rig ~updates ~count:w.Workloads.updates
  in
  Speed.Probe.stop probe;
  let acks_ms = List.map fst acks in
  (* timings at the reference speed, each by the slowdown over its own
     interval *)
  let setup_slowdowns = Array.map (fun (lo, hi) -> Speed.Probe.slowdown probe ~lo ~hi) setups in
  let ack_slowdowns =
    List.map (fun (ms, at) -> Speed.Probe.slowdown probe ~lo:(at -. (ms /. 1000.)) ~hi:at) acks
  in
  stop_server rig.server;
  let owner_metrics = quit_owner rig.owner in
  let queries = Array.length win.samples in
  let all_lat = Array.map (fun s -> s.Report.lat *. 1e6) win.samples in
  (* the two digest checks count as operations too *)
  let attempted = win.sent + w.Workloads.updates + 2 in
  let failed =
    win.failed + updates_failed + (if digest_ok then 0 else 1)
    + if owner_digest_ok then 0 else 1
  in
  let correct = failed = 0 && queries > 0 && acks_ms <> [] in
  let d k = stat win.stats1 k - stat win.stats0 k in
  (* the reply to the first stats request left the server inside the window *)
  let reply_bytes =
    float_of_int (d "bytes_out" - win.stats0_frame) /. float_of_int (max 1 queries)
  in
  let metrics =
    if not traced then begin
      let sl = win.slices in
      let per_q x = x *. 1e6 /. float_of_int (max 1 queries) in
      (* the figures as measured, before they are set to the reference
         speed *)
      log "as measured: throughput %.1f/s, p50 %.1f us, p99 %.1f us, server %.1f us/q, client %.1f us/q, set-up %.3f s, republish %.1f ms"
        (float_of_int queries /. win.wall_s) (Measure.percentile all_lat 50.)
        (Measure.percentile all_lat 99.) (per_q win.server_cpu_s) (per_q win.client_cpu_s)
        (Measure.median setup_times) (Measure.median (Array.of_list acks_ms));
      let show xs = String.concat " " (List.map (Printf.sprintf "%.2f") xs) in
      log "slowdown: window slices %s; set-ups %s; updates %s"
        (show (List.map Slices.slowdown sl)) (show (Array.to_list setup_slowdowns))
        (show ack_slowdowns);
      Catalog.select Catalog.end_to_end
        [
          ("setup_s", Measure.median (Array.map2 ( /. ) setup_times setup_slowdowns));
          ("throughput_qps", Slices.throughput sl);
          ("query_p50_us", 1e6 *. Slices.latency sl 50.);
          ("query_p99_us", 1e6 *. Slices.latency sl 99.);
          ("server_cpu_us_per_query", 1e6 *. Slices.server_cpu sl);
          ("client_cpu_us_per_query", 1e6 *. Slices.client_cpu sl);
          ("reply_bytes_mean", reply_bytes);
          ("snapshot_bytes", float_of_int rig.snapshot_bytes);
          ("server_rss_mb", rss_mb);
          ( "republish_p50_ms",
            Measure.median (Array.of_list (List.map2 ( /. ) acks_ms ack_slowdowns)) );
        ]
    end
    else
      Report.per_layer ~workload ~rec_ ~base ~win_samples:win.samples ~setup_times
        ~owner_metrics
        ~replay:(fun () ->
          let r, wfd = Unix.pipe ~cloexec:true () in
          let pid =
            spawn ~stdout:wfd
              [ "replay"; "--workload"; workload; "--seed"; string_of_int seed; "--dir";
                rig.dir; "--sent"; string_of_int win.sent; "--spans";
                Filename.concat base "spans.replay" ]
          in
          Unix.close wfd;
          let ic = Unix.in_channel_of_descr r in
          let ms = Lines.read_metrics ic in
          close_in ic;
          reap ~grace:150. pid;
          ms)
        ~cache_hit_ratio:(Measure.ratio (d "cache_hits") (d "cache_misses"))
        ~bytes_out_per_query:reply_bytes ~republish_ms:acks_ms
  in
  if not traced then rm_rf base
  else
    Array.iter
      (fun f -> if String.length f > 3 && String.sub f 0 3 = "rep" then rm_rf (Filename.concat base f))
      (Sys.readdir base);
  log "%s seed %d: %d queries in %.2f s (steal %.0f%%), %d failed, %d of %d updates acked, setup %s s"
    workload seed queries win.wall_s (100. *. win.steal) failed (List.length acks_ms)
    w.Workloads.updates
    (String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)));
  print_endline (Measure.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
