(* Tests for the production workload harness: spec round-trips over
   every checked-in workloads/*.json, the pure SLO gate on synthetic
   measurements, and the `aqv_net workload` command end to end — a
   satisfied spec exits 0 with ok=1, a violated bound exits non-zero
   and names itself in the JSON report, and neither run leaves a
   spawned server or a temp file behind; and `aqv_net publish` into an
   uncreatable directory exits 1 with the store error. *)

module Json = Aqv_util.Json
module Spec = Aqv_db.Spec
module Util_ref = Aqv_ref.Util_ref
module Db_ref = Aqv_ref.Db_ref

let check = Alcotest.check

(* Anchor on the executable's own location (_build/default/test), not
   the cwd: `dune runtest` and `dune exec test/...` run from different
   directories. The (deps ...) clause in test/dune materializes the
   binary and the spec files in the sibling build directories. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let workloads_dir = Filename.concat build_root "workloads"
let aqv_net = Filename.concat build_root "bin/aqv_net.exe"

let spec_files () =
  Sys.readdir workloads_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat workloads_dir)

(* ---------------------------- round trips ---------------------------- *)

let test_specs_present () =
  (* the harness ships with a spec corpus; an empty glob would make
     every round-trip test pass vacuously *)
  check Alcotest.bool "at least 3 checked-in specs" true
    (List.length (spec_files ()) >= 3)

let test_spec_roundtrip () =
  List.iter
    (fun path ->
      match Spec.load path with
      | Error e ->
        Alcotest.failf "%s does not parse: %s" path (Spec.error_to_string e)
      | Ok s -> (
        let emitted = Json.to_string (Spec.to_json s) in
        match Db_ref.spec_of_string emitted with
        | Error e ->
          Alcotest.failf "%s: emission does not re-parse: %s" path
            (Spec.error_to_string e)
        | Ok s' ->
          if s <> s' then Alcotest.failf "%s: round trip changed the spec" path;
          (* and the emission is a fixpoint: parse-emit-parse-emit is
             byte-stable, so canonical bytes can be compared directly *)
          (match Db_ref.spec_of_string emitted with
          | Ok s'' ->
            check Alcotest.string
              (Printf.sprintf "%s fixpoint" path)
              emitted
              (Json.to_string (Spec.to_json s''))
          | Error _ -> assert false)))
    (spec_files ())

let test_spec_rejects_unknown_field () =
  match Spec.load (Filename.concat workloads_dir "smoke.json") with
  | Error e -> Alcotest.failf "smoke.json: %s" (Spec.error_to_string e)
  | Ok s -> (
    match Json.to_obj (Spec.to_json s) with
    | None -> Alcotest.fail "to_json not an object"
    | Some assoc ->
      let rejected ~expect doctored =
        match Db_ref.spec_of_json doctored with
        | Error (Spec.Unknown_field f) when f = expect -> ()
        | Ok _ -> Alcotest.failf "unknown field %s accepted" expect
        | Error e -> Alcotest.failf "wrong error: %s" (Spec.error_to_string e)
      in
      rejected ~expect:"typo_field" (Json.Obj (assoc @ [ ("typo_field", Json.Int 1) ]));
      (* the retired fragment-cache SLO key is no longer read *)
      let slo = Option.get (Json.to_obj (List.assoc "slo" assoc)) in
      rejected ~expect:"slo.min_post_republish_frag_hit_rate"
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "slo" then
                  (k, Json.Obj (slo @ [ ("min_post_republish_frag_hit_rate", Json.Float 0.5) ]))
                else (k, v))
              assoc));
      (* and a record that still sets it is refused as retired *)
      let retired =
        { s with Spec.slo = { s.Spec.slo with Spec.min_post_republish_frag_hit_rate = Some 0.5 } }
      in
      match Spec.validate retired with
      | Error (Spec.Bad_field ("slo.min_post_republish_frag_hit_rate", _)) -> ()
      | Ok _ -> Alcotest.fail "retired SLO bound accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Spec.error_to_string e))

(* ------------------------------ SLO gate ----------------------------- *)

let slo_all =
  {
    Spec.min_throughput_rps = Some 100.;
    p50_us_max = Some 1_000;
    p99_us_max = Some 10_000;
    p999_us_max = Some 50_000;
    min_post_republish_frag_hit_rate = None;
  }

let good =
  {
    Spec.throughput_rps = 250.;
    p50_us = 800;
    p99_us = 9_000;
    p999_us = 40_000;
  }

(* the gate's verdict: the rows whose bound was broken *)
let violations slo m = List.filter (fun r -> not r.Spec.ok) (Spec.evaluate_slo slo m)

let test_gate_satisfied () =
  check Alcotest.int "no violations" 0 (List.length (violations slo_all good))

let test_gate_names_bounds () =
  let bad =
    {
      Spec.throughput_rps = 10.;
      p50_us = 2_000;
      p99_us = 9_000;
      p999_us = 60_000;
    }
  in
  let v = violations slo_all bad in
  let names = List.map (fun v -> v.Spec.bound) v in
  check
    Alcotest.(list string)
    "each broken bound named, in declaration order"
    [ "min_throughput_rps"; "p50_us_max"; "p999_us_max" ]
    names;
  let thr = List.find (fun v -> v.Spec.bound = "min_throughput_rps") v in
  check (Alcotest.float 1e-9) "limit" 100. thr.Spec.limit;
  check (Alcotest.float 1e-9) "actual" 10. thr.Spec.actual

let test_gate_pure () =
  (* same inputs, same verdict — no clock, no hidden state *)
  let a = Spec.evaluate_slo slo_all good and b = Spec.evaluate_slo slo_all good in
  check Alcotest.bool "deterministic" true (a = b)

(* ----------------------------- end to end ---------------------------- *)

(* A child of [Unix.system] inherits every descriptor that is not
   close-on-exec, Alcotest's copy of the runner's stdout among them: a
   server the command leaked would hold that pipe open, and whatever
   reads the runner's output would wait for it instead of seeing the
   failure. So every descriptor above stderr is marked first, and a
   leaked child holds only the command's redirected output file. *)
let close_on_exec_above_stderr () =
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some fd when fd > 2 -> (
        (* a descriptor is an int on Unix; the listing's own is closed
           by now *)
        try Unix.set_close_on_exec (Obj.magic fd : Unix.file_descr)
        with Unix.Unix_error _ -> ())
      | _ -> ())
    (Sys.readdir "/proc/self/fd")

let run_aqv_net ?tmpdir args =
  let out = Filename.temp_file "aqv_workload" ".out" in
  let env =
    match tmpdir with Some d -> "TMPDIR=" ^ Filename.quote d ^ " " | None -> ""
  in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2>&1" env (Filename.quote aqv_net) args
      (Filename.quote out)
  in
  close_on_exec_above_stderr ();
  let code =
    match Unix.system cmd with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let run_workload_cmd ?tmpdir args = run_aqv_net ?tmpdir ("workload " ^ args)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* total field access: absent members read as Null, so the typed
   accessors compose *)
let mem k j = Option.value (Util_ref.json_member k j) ~default:Json.Null

let read_json path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse_exn s

(* A fresh TMPDIR for one `workload` run: the spawned servers' stores
   and port files live under it, so once the command exits it must be
   empty, and no live process may name it on its command line. *)
let fresh_tmpdir () =
  let d = Filename.temp_file "aqv_workload" ".tmp" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let check_nothing_left tmpdir =
  check Alcotest.(list string) "temp dir left empty" []
    (Array.to_list (Sys.readdir tmpdir));
  let naming =
    Sys.readdir "/proc" |> Array.to_list
    |> List.filter (fun pid ->
           match
             In_channel.with_open_bin
               (Filename.concat (Filename.concat "/proc" pid) "cmdline")
               In_channel.input_all
           with
           | cmdline -> contains cmdline tmpdir
           | exception Sys_error _ -> false)
  in
  check Alcotest.(list string) "no process names the temp dir" [] naming;
  Unix.rmdir tmpdir

let test_e2e_pass () =
  let report = Filename.temp_file "aqv_workload" ".json" in
  let tmpdir = fresh_tmpdir () in
  let code, text =
    run_workload_cmd ~tmpdir
      (Printf.sprintf "--spec %s --json %s"
         (Filename.quote (Filename.concat workloads_dir "smoke.json"))
         (Filename.quote report))
  in
  if code <> 0 then Alcotest.failf "smoke spec failed (exit %d):\n%s" code text;
  check_nothing_left tmpdir;
  let j = read_json report in
  Sys.remove report;
  check Alcotest.(option int) "ok=1" (Some 1) (Json.to_int (mem "ok" j));
  (match Util_ref.json_to_list (mem "violations" j) with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected an empty violations list");
  (* the report echoes the trace identity the library computes *)
  let spec = Spec.load (Filename.concat workloads_dir "smoke.json") |> Result.get_ok in
  let trace = Aqv_db.Workload.Trace.generate spec (Aqv_db.Workload.table_of_spec spec) in
  check
    Alcotest.(option string)
    "trace digest matches an in-process generation"
    (Some trace.Aqv_db.Workload.Trace.sha256_hex)
    (Json.to_str (mem "sha256" (mem "trace" j)))

let test_e2e_violation_names_bound () =
  (* tighten smoke's throughput floor beyond any machine's reach: the
     run must exit non-zero and the report must name the broken bound *)
  let spec =
    Spec.load (Filename.concat workloads_dir "smoke.json") |> Result.get_ok
  in
  let impossible =
    { spec with Spec.slo = { spec.Spec.slo with Spec.min_throughput_rps = Some 1e12 } }
  in
  let spec_file = Filename.temp_file "aqv_workload" ".json" in
  let oc = open_out spec_file in
  output_string oc (Json.to_string (Spec.to_json impossible));
  close_out oc;
  let report = Filename.temp_file "aqv_workload" ".json" in
  let tmpdir = fresh_tmpdir () in
  let code, text =
    run_workload_cmd ~tmpdir
      (Printf.sprintf "--spec %s --json %s" (Filename.quote spec_file)
         (Filename.quote report))
  in
  Sys.remove spec_file;
  if code = 0 then Alcotest.failf "impossible SLO passed:\n%s" text;
  check Alcotest.int "exit 1, not a crash" 1 code;
  check_nothing_left tmpdir;
  let j = read_json report in
  Sys.remove report;
  check Alcotest.(option int) "ok=0" (Some 0) (Json.to_int (mem "ok" j));
  (match Util_ref.json_to_list (mem "violations" j) with
  | Some names ->
    check Alcotest.bool "violations name the bound" true
      (List.exists (fun n -> Json.to_str n = Some "min_throughput_rps") names)
  | None -> Alcotest.fail "violations missing");
  (* the per-bound rows agree with the verdict *)
  match Util_ref.json_to_list (mem "slo" j) with
  | None -> Alcotest.fail "slo rows missing"
  | Some rows ->
    let row =
      List.find
        (fun r -> Json.to_str (mem "bound" r) = Some "min_throughput_rps")
        rows
    in
    check Alcotest.(option int) "row marked not ok" (Some 0)
      (Json.to_int (mem "ok" row))

let test_e2e_bad_spec_exit_2 () =
  let spec_file = Filename.temp_file "aqv_workload" ".json" in
  let oc = open_out spec_file in
  output_string oc {|{"name":"x","seed":1}|};
  close_out oc;
  let code, text = run_workload_cmd ("--spec " ^ Filename.quote spec_file) in
  Sys.remove spec_file;
  check Alcotest.int "exit 2 on bad spec" 2 code;
  check Alcotest.bool "error names the missing field" true (contains text "records")

let test_publish_missing_dir () =
  (* the parent directory does not exist, so the store cannot create D *)
  let dir = Filename.concat (Filename.temp_file "aqv_publish" ".absent") "sub" in
  Sys.remove (Filename.dirname dir);
  let code, text = run_aqv_net ("publish --records 8 --dir " ^ Filename.quote dir) in
  check Alcotest.int "exit 1, not a crash" 1 code;
  check Alcotest.bool "store error reported" true
    (contains text ("aqv_net: cannot publish to " ^ dir ^ ": "))

let () =
  Alcotest.run "aqv_workload"
    [
      ( "spec files",
        [
          Alcotest.test_case "corpus present" `Quick test_specs_present;
          Alcotest.test_case "round trip + fixpoint" `Quick test_spec_roundtrip;
          Alcotest.test_case "unknown field rejected" `Quick test_spec_rejects_unknown_field;
        ] );
      ( "slo gate",
        [
          Alcotest.test_case "satisfied" `Quick test_gate_satisfied;
          Alcotest.test_case "violations name bounds" `Quick test_gate_names_bounds;
          Alcotest.test_case "pure" `Quick test_gate_pure;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "smoke spec passes" `Quick test_e2e_pass;
          Alcotest.test_case "violated bound named" `Quick test_e2e_violation_names_bound;
          Alcotest.test_case "bad spec exit 2" `Quick test_e2e_bad_spec_exit_2;
          Alcotest.test_case "publish to missing dir" `Quick test_publish_missing_dir;
        ] );
    ]
