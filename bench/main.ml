(* Benchmark harness: regenerates every figure of the paper's evaluation
   section (Figs. 5-8) plus Bechamel micro-benchmarks of the primitive
   operations.

   Usage:
     dune exec bench/main.exe                 # all figures + micros
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --only fig6a # one figure
     dune exec bench/main.exe -- --no-micro   # skip bechamel section
     dune exec bench/main.exe -- --json BENCH.json  # machine-readable rows
     AQV_BENCH_SCALE=2 dune exec bench/main.exe     # larger sweeps
     AQV_DOMAINS=4 dune exec bench/main.exe -- --only fig5b  # par build pool

   The paper's testbed ran 1,000-10,000 records; the defaults here are
   scaled down so the full suite completes in minutes on a laptop (the
   signature mesh baseline costs Theta(n^2) signatures — the reason the
   paper itself calls its construction "extremely time-consuming").
   Shapes, not absolute numbers, are the reproduction target; see
   EXPERIMENTS.md. *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Metrics = Aqv_util.Metrics
module Signer = Aqv_crypto.Signer
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Pool = Aqv_par.Pool
module Mesh_ref = Aqv_ref.Mesh_ref
module Store_ref = Aqv_ref.Store_ref
module Bigint_ref = Aqv_ref.Bigint_ref
open Aqv

let scale =
  match Sys.getenv_opt "AQV_BENCH_SCALE" with
  | Some s -> (try float_of_string s with _ -> 1.0)
  | None -> 1.0

let scaled n = max 2 (int_of_float (float_of_int n *. scale))

let queries_per_point = 50

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let row fmt = Printf.printf fmt
let header title = Printf.printf "\n== %s ==\n%!" title

(* --------------------------- JSON output ---------------------------- *)

(* `--json FILE` accumulates machine-readable rows (construction seq/par
   seconds, speedups, per-figure wall time) so successive PRs leave a
   perf trajectory (BENCH_*.json) instead of scrollback. No JSON
   dependency in the image: emit by hand. *)

type jval = J_num of float | J_int of int | J_str of string

let json_rows : (string * jval) list list ref = ref []
let json_add fields = json_rows := fields :: !json_rows

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jval_to_string = function
  | J_num f -> Printf.sprintf "%.6f" f
  | J_int i -> string_of_int i
  | J_str s -> Printf.sprintf "\"%s\"" (json_escape s)

let write_json path ~total_s =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"aqv-bench-v1\",\n";
  out "  \"scale\": %.3f,\n" scale;
  out "  \"domains\": %d,\n" (Pool.size (Pool.default ()));
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"total_s\": %.3f,\n" total_s;
  out "  \"rows\": [\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i fields ->
      out "    {%s}%s\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (jval_to_string v)) fields))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d rows)\n%!" path (List.length rows)

(* ----------------------------- contexts ----------------------------- *)

let master_seed = 0xBE7CL

let table_cache : (int, Table.t) Hashtbl.t = Hashtbl.create 8

let table_of n =
  match Hashtbl.find_opt table_cache n with
  | Some t -> t
  | None ->
    let t = Workload.lines_1d ~n (Prng.create (Int64.add master_seed (Int64.of_int n))) in
    Hashtbl.add table_cache n t;
    t

let dry_signer = Signer.counting_sign_dry_run ~signature_size:64

let rsa_keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 4242L))
let dsa_keypair = lazy (Signer.generate ~bits:512 Signer.Dsa (Prng.create 4243L))

type ctx = { table : Table.t; one : Ifmh.t; multi : Ifmh.t; mesh : Mesh.t }

let ctx_cache : (int, ctx) Hashtbl.t = Hashtbl.create 8

(* dry-signed context: correct structure and sizes, no RSA cost; used by
   the server-cost and VO-size figures *)
let ctx_of n =
  match Hashtbl.find_opt ctx_cache n with
  | Some c -> c
  | None ->
    let table = table_of n in
    let one = Ifmh.build ~scheme:Ifmh.One_signature table dry_signer in
    let multi = Ifmh.build ~scheme:Ifmh.Multi_signature table dry_signer in
    let mesh = Mesh.build table dry_signer in
    let c = { table; one; multi; mesh } in
    Hashtbl.add ctx_cache n c;
    c

let query_rng () = Prng.create 0x5EEDL

(* average total node visits over random instances of a query maker *)
let avg_server_cost answer make_query =
  let rng = query_rng () in
  let total = ref 0 in
  for _ = 1 to queries_per_point do
    let q = make_query rng in
    Metrics.reset ();
    ignore (answer q);
    total := !total + Metrics.total_node_visits (Metrics.snapshot ())
  done;
  float_of_int !total /. float_of_int queries_per_point

(* ------------------------------ Fig 5 ------------------------------- *)

let fig5a () =
  header "Fig 5a — signatures needed to build the structure (vs n)";
  row "%8s %14s %14s %14s\n" "n" "mesh" "multi-sig" "one-sig";
  List.iter
    (fun n ->
      let n = scaled n in
      let table = table_of n in
      let mesh_sigs, cells = Mesh.count_signatures table in
      row "%8d %14d %14d %14d\n%!" n mesh_sigs cells 1)
    [ 100; 200; 400; 600; 800; 1000 ]

let fig5b () =
  header "Fig 5b — construction time (seconds, real RSA-512 signing; seq vs par)";
  let kp = Lazy.force rsa_keypair in
  let par = Pool.default () in
  let seq = Pool.create ~domains:1 () in
  let domains = Pool.size par in
  row "(par pool: %d domain%s; set AQV_DOMAINS to override)\n" domains
    (if domains = 1 then "" else "s");
  row "%8s %9s %9s %9s %9s %9s %9s %9s\n" "n" "mesh" "mesh-par" "multi" "multi-par" "one"
    "one-par" "speedup";
  List.iter
    (fun n ->
      let n = scaled n in
      let table = table_of n in
      let measure scheme_name build_with =
        let _, t_seq = time (fun () -> build_with seq) in
        let _, t_par = time (fun () -> build_with par) in
        json_add
          [
            ("figure", J_str "fig5b");
            ("n", J_int n);
            ("scheme", J_str scheme_name);
            ("domains", J_int domains);
            ("seq_s", J_num t_seq);
            ("par_s", J_num t_par);
            ("speedup", J_num (t_seq /. t_par));
          ];
        (t_seq, t_par)
      in
      let tm_s, tm_p = measure "mesh" (fun pool -> ignore (Mesh.build ~pool table kp)) in
      let tu_s, tu_p =
        measure "multi-sig" (fun pool ->
            ignore (Ifmh.build ~pool ~scheme:Ifmh.Multi_signature table kp))
      in
      let to_s, to_p =
        measure "one-sig" (fun pool ->
            ignore (Ifmh.build ~pool ~scheme:Ifmh.One_signature table kp))
      in
      row "%8d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %8.2fx\n%!" n tm_s tm_p tu_s tu_p to_s
        to_p (tu_s /. tu_p))
    [ 50; 100; 150; 200 ];
  Pool.shutdown seq

let fig5c () =
  header "Fig 5c — size of the verification structure (MB)";
  row "%8s %12s %14s %14s %14s\n" "n" "mesh" "multi-sig" "one-sig" "shared-FMH";
  let mb b = float_of_int b /. 1e6 in
  let sig_bytes = 64 and digest = 32 in
  List.iter
    (fun n ->
      let n = scaled n in
      let table = table_of n in
      let mesh_sigs, cells = Mesh.count_signatures table in
      (* mesh: per-cell sorted list + signatures with span metadata *)
      let mesh_bytes = (cells * ((n * 8) + 32)) + (mesh_sigs * (sig_bytes + 32)) in
      let itree = Itree.build (Table.domain table) (Table.functions table) in
      let imh_nodes = Itree.node_count itree in
      let subdomains = Itree.leaf_count itree in
      (* the paper's storage model: one full FMH-tree per subdomain *)
      let fmh_per_subdomain = ((2 * (n + 2)) - 1) * digest in
      let base = (imh_nodes * (digest + 24)) + (subdomains * fmh_per_subdomain) in
      let one_bytes = base + sig_bytes in
      let multi_bytes = base + (subdomains * sig_bytes) in
      (* what this implementation actually stores: persistent FMH trees
         sharing all untouched nodes; each boundary crossing copies two
         leaf-to-root paths *)
      let log2n =
        let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
        go 0 (n + 2)
      in
      let shared_fmh_nodes =
        ((2 * (n + 2)) - 1) + (Itree.intersection_count itree * 4 * (log2n + 1))
      in
      let shared_bytes =
        (imh_nodes * (digest + 24)) + (shared_fmh_nodes * digest)
        + (subdomains * sig_bytes)
      in
      row "%8d %12.2f %14.2f %14.2f %14.2f\n%!" n (mb mesh_bytes) (mb multi_bytes)
        (mb one_bytes) (mb shared_bytes))
    [ 100; 200; 400; 600; 800 ]

(* ------------------------------ Fig 6 ------------------------------- *)

(* Locate columns average the point-location sign tests at the same
   query points: binary search vs the linear-scan reference. *)
let server_cost_figure ~id ~title ~make_query () =
  header title;
  row "%8s %6s %10s %10s %10s %8s %9s\n" "n" "S" "mesh" "one-sig" "multi-sig"
    "loc-bin" "loc-scan";
  List.iter
    (fun n ->
      let n = scaled n in
      let c = ctx_of n in
      let s = Mesh.subdomain_count c.mesh in
      let mk = make_query c.table in
      let mesh = avg_server_cost (Mesh.answer c.mesh) mk in
      let one = avg_server_cost (Server.answer c.one) mk in
      let multi = avg_server_cost (Server.answer c.multi) mk in
      let locate_cost locate =
        let rng = query_rng () in
        let total = ref 0 in
        for _ = 1 to queries_per_point do
          let q = mk rng in
          Metrics.reset ();
          ignore (locate c.mesh (Query.x q).(0));
          total := !total + (Metrics.snapshot ()).Metrics.locate_sign_tests
        done;
        float_of_int !total /. float_of_int queries_per_point
      in
      let loc_bin = locate_cost Mesh.locate_cell in
      let loc_scan = locate_cost Mesh_ref.locate_cell_scan in
      row "%8d %6d %10.1f %10.1f %10.1f %8.1f %9.1f\n%!" n s mesh one multi loc_bin
        loc_scan;
      json_add
        [
          ("figure", J_str id);
          ("n", J_int n);
          ("subdomains", J_int s);
          ("mesh_cost", J_num mesh);
          ("one_sig_cost", J_num one);
          ("multi_sig_cost", J_num multi);
          ("locate_sign_tests_binary", J_num loc_bin);
          ("locate_sign_tests_scan", J_num loc_scan);
        ])
    [ 100; 200; 300; 400; 500 ]

let topk_query k table rng = Query.top_k ~x:(Workload.weight_point table rng) ~k

let knn_query k table rng =
  let x = Workload.weight_point table rng in
  let scores = Workload.scores_at table x in
  let y = snd scores.(Prng.int rng (Array.length scores)) in
  Query.knn ~x ~k ~y

let range_query size table rng =
  let x = Workload.weight_point table rng in
  let l, u = Workload.range_for_result_size table ~x ~size in
  Query.range ~x ~l ~u

let fig6a =
  server_cost_figure ~id:"fig6a"
    ~title:"Fig 6a — server cost, top-3 queries (nodes/cells visited)"
    ~make_query:(topk_query 3)

let fig6b =
  server_cost_figure ~id:"fig6b"
    ~title:"Fig 6b — server cost, 3NN queries (nodes/cells visited)"
    ~make_query:(knn_query 3)

let fig6c =
  server_cost_figure ~id:"fig6c"
    ~title:"Fig 6c — server cost, range queries with |R|=3 (nodes/cells visited)"
    ~make_query:(range_query 3)

let fig6d () =
  header "Fig 6d — server cost vs result size (n fixed)";
  let n = scaled 500 in
  row "(n = %d)\n" n;
  row "%8s %12s %14s %14s\n" "|q|" "mesh" "one-sig" "multi-sig";
  let c = ctx_of n in
  List.iter
    (fun frac ->
      let size = max 1 (n * frac / 100) in
      let mk = range_query size in
      let mesh_c = avg_server_cost (Mesh.answer c.mesh) (mk c.table) in
      let one_c = avg_server_cost (Server.answer c.one) (mk c.table) in
      let multi_c = avg_server_cost (Server.answer c.multi) (mk c.table) in
      row "%8d %12.1f %14.1f %14.1f\n%!" size mesh_c one_c multi_c)
    [ 10; 20; 40; 60; 80; 100 ]

(* ------------------------------ Fig 7 ------------------------------- *)

type real_ctx = {
  rtable : Table.t;
  rone : Ifmh.t;
  rmulti : Ifmh.t;
  rmesh : Mesh.t;
  rone_dsa : Ifmh.t;
  rmulti_dsa : Ifmh.t;
}

let fig7_n () = scaled 300

let real_ctx =
  lazy
    (let table = table_of (fig7_n ()) in
     let kp = Lazy.force rsa_keypair in
     let kpd = Lazy.force dsa_keypair in
     {
       rtable = table;
       rone = Ifmh.build ~scheme:Ifmh.One_signature table kp;
       rmulti = Ifmh.build ~scheme:Ifmh.Multi_signature table kp;
       rmesh = Mesh.build table kp;
       rone_dsa = Ifmh.build ~scheme:Ifmh.One_signature table kpd;
       rmulti_dsa = Ifmh.build ~scheme:Ifmh.Multi_signature table kpd;
     })

(* (avg seconds, hash ops per run, signature verifies per run) *)
let verify_stats ~repeat verify =
  Metrics.reset ();
  let before = Metrics.snapshot () in
  let (), total = time (fun () -> for _ = 1 to repeat do verify () done) in
  let after = Metrics.snapshot () in
  let d = Metrics.diff after before in
  (total /. float_of_int repeat, d.Metrics.hash_ops / repeat, d.Metrics.verify_ops / repeat)

let result_sizes () = List.map (fun p -> max 1 (fig7_n () * p / 100)) [ 10; 25; 50; 75; 100 ]

let fig7_query ?(rng = query_rng ()) size table =
  let x = Workload.weight_point table rng in
  let l, u = Workload.range_for_result_size table ~x ~size in
  Query.range ~x ~l ~u

(* average VO size over several random query points *)
let avg_vo_size ~samples make_size =
  let rng = query_rng () in
  let total = ref 0 in
  for _ = 1 to samples do
    total := !total + make_size rng
  done;
  float_of_int !total /. float_of_int samples

let verifier_for keypair table =
  Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
    ~verify_signature:keypair.Signer.verify

let mesh_verify c kp q resp =
  match
    Mesh.verify ~template:(Table.template c.rtable) ~domain:(Table.domain c.rtable)
      ~verify_signature:kp.Signer.verify q resp
  with
  | Ok () -> ()
  | Error r -> failwith (Semantics.rejection_to_string r)

(* A fresh ctx per verification: a reused one answers repeated digests
   from its memo, and Fig. 7 reports one cold verification's cost. *)
let fig7_rows ~show () =
  let c = Lazy.force real_ctx in
  let kp = Lazy.force rsa_keypair in
  List.iter
    (fun size ->
      let q = fig7_query size c.rtable in
      let mresp = Mesh.answer c.rmesh q in
      let oresp = Server.answer c.rone q in
      let uresp = Server.answer c.rmulti q in
      let sm = verify_stats ~repeat:3 (fun () -> mesh_verify c kp q mresp) in
      let cold resp () =
        match Client.verify (verifier_for kp c.rtable) q resp with
        | Ok () -> ()
        | Error _ -> failwith "reject"
      in
      let so = verify_stats ~repeat:3 (cold oresp) in
      let su = verify_stats ~repeat:3 (cold uresp) in
      show size sm so su)
    (result_sizes ())

let fig7a () =
  header "Fig 7a — user verification time vs result size (ms)";
  row "(n = %d, RSA-512)\n" (fig7_n ());
  row "%8s %12s %14s %14s\n" "|q|" "mesh" "one-sig" "multi-sig";
  fig7_rows () ~show:(fun size (tm, _, _) (tone, _, _) (tmulti, _, _) ->
      row "%8d %12.2f %14.2f %14.2f\n%!" size (tm *. 1000.) (tone *. 1000.) (tmulti *. 1000.))

let fig7b () =
  header "Fig 7b — hash operations during verification vs result size";
  row "%8s %12s %14s %14s\n" "|q|" "mesh" "one-sig" "multi-sig";
  fig7_rows () ~show:(fun size (_, hm, _) (_, ho, _) (_, hu, _) ->
      row "%8d %12d %14d %14d\n%!" size hm ho hu)

let fig7c () =
  header "Fig 7c — signature verification time, RSA vs DSA";
  let c = Lazy.force real_ctx in
  let kp = Lazy.force rsa_keypair in
  let kpd = Lazy.force dsa_keypair in
  let d = Aqv_crypto.Sha256.digest "probe" in
  let sig_rsa = kp.Signer.sign d in
  let sig_dsa = kpd.Signer.sign d in
  let (), t_rsa = time (fun () -> for _ = 1 to 200 do ignore (kp.Signer.verify d sig_rsa) done) in
  let (), t_dsa = time (fun () -> for _ = 1 to 200 do ignore (kpd.Signer.verify d sig_dsa) done) in
  row "%-24s %10.3f ms/op\n" "RSA-512 verify" (t_rsa /. 200. *. 1000.);
  row "%-24s %10.3f ms/op\n" "DSA-512/160 verify" (t_dsa /. 200. *. 1000.);
  (* end-to-end verification under each signature algorithm *)
  let q = fig7_query (max 1 (fig7_n () / 10)) c.rtable in
  List.iter
    (fun (name, index, key) ->
      let resp = Server.answer index q in
      let t, _, _ =
        verify_stats ~repeat:5 (fun () ->
            match Client.verify (verifier_for key c.rtable) q resp with
            | Ok () -> ()
            | Error _ -> failwith "reject")
      in
      row "%-24s %10.3f ms end-to-end\n%!" name (t *. 1000.))
    [
      ("one-sig RSA", c.rone, kp);
      ("one-sig DSA", c.rone_dsa, kpd);
      ("multi-sig RSA", c.rmulti, kp);
      ("multi-sig DSA", c.rmulti_dsa, kpd);
    ]

let fig7d () =
  header "Fig 7d — total verification time incl. signature ops (ms)";
  row "%8s %12s %14s %14s %12s\n" "|q|" "mesh" "one-sig" "multi-sig" "mesh #sigs";
  fig7_rows () ~show:(fun size (tm, _, vm) (tone, _, _) (tmulti, _, _) ->
      row "%8d %12.2f %14.2f %14.2f %12d\n%!" size (tm *. 1000.) (tone *. 1000.)
        (tmulti *. 1000.) vm)

(* ------------------------------ Fig 8 ------------------------------- *)

let fig8a () =
  header "Fig 8a — VO size vs result size (bytes, n fixed)";
  let n = scaled 500 in
  row "(n = %d)\n" n;
  row "%8s %12s %14s %14s\n" "|q|" "mesh" "one-sig" "multi-sig";
  let c = ctx_of n in
  List.iter
    (fun frac ->
      let size = max 1 (n * frac / 100) in
      let mesh =
        avg_vo_size ~samples:20 (fun rng ->
            Mesh.vo_size_bytes (Mesh.answer c.mesh (fig7_query ~rng size c.table)).Mesh.vo)
      in
      let one =
        avg_vo_size ~samples:20 (fun rng ->
            Vo.size_bytes (Server.answer c.one (fig7_query ~rng size c.table)).Server.vo)
      in
      let multi =
        avg_vo_size ~samples:20 (fun rng ->
            Vo.size_bytes (Server.answer c.multi (fig7_query ~rng size c.table)).Server.vo)
      in
      row "%8d %12.0f %14.0f %14.0f\n%!" size mesh one multi)
    [ 5; 10; 20; 40; 60; 80; 100 ]

let fig8b () =
  header "Fig 8b — VO size vs database size (bytes, |q| fixed)";
  let size = 20 in
  row "(|q| = %d)\n" size;
  row "%8s %12s %14s %14s\n" "n" "mesh" "one-sig" "multi-sig";
  List.iter
    (fun n ->
      let n = scaled n in
      let c = ctx_of n in
      let mesh =
        avg_vo_size ~samples:20 (fun rng ->
            Mesh.vo_size_bytes (Mesh.answer c.mesh (fig7_query ~rng size c.table)).Mesh.vo)
      in
      let one =
        avg_vo_size ~samples:20 (fun rng ->
            Vo.size_bytes (Server.answer c.one (fig7_query ~rng size c.table)).Server.vo)
      in
      let multi =
        avg_vo_size ~samples:20 (fun rng ->
            Vo.size_bytes (Server.answer c.multi (fig7_query ~rng size c.table)).Server.vo)
      in
      row "%8d %12.0f %14.0f %14.0f\n%!" n mesh one multi)
    [ 100; 200; 300; 400; 500 ]

(* ----------------------------- ablations ---------------------------- *)

(* DESIGN.md par.6: design-choice ablations beyond the paper's figures. *)

let abl_montgomery () =
  header "Ablation — Montgomery vs plain modular exponentiation (RSA-512-shaped)";
  let module Z = Aqv_bigint.Bigint in
  let rng = Prng.create 31337L in
  let m = Z.succ (Z.shift_left (Z.random_bits rng 511) 1) (* odd 512-bit *) in
  let b = Z.random_below rng m in
  let e = Z.random_bits rng 512 in
  let reps = 50 in
  let ctx = Z.mont m in
  let (), t_mont =
    time (fun () -> for _ = 1 to reps do ignore (Z.mod_pow_mont ctx ~base:b ~exp:e) done)
  in
  let (), t_plain =
    time (fun () ->
        for _ = 1 to reps do ignore (Bigint_ref.mod_pow_plain ~base:b ~exp:e ~modulus:m) done)
  in
  row "%-28s %10.3f ms/op\n" "Montgomery (5-bit sliding)" (t_mont /. float_of_int reps *. 1000.);
  row "%-28s %10.3f ms/op\n" "plain square-and-multiply" (t_plain /. float_of_int reps *. 1000.);
  row "speedup: %.1fx\n" (t_plain /. t_mont);
  (* multiplication sizes around the Karatsuba threshold (~832 bits) *)
  List.iter
    (fun bits ->
      let a = Z.random_bits rng bits and b2 = Z.random_bits rng bits in
      let reps = max 4 (2_000_000 / (bits * bits / 640)) in
      let (), t = time (fun () -> for _ = 1 to reps do ignore (Z.mul a b2) done) in
      row "mul %5d-bit %22.1f us/op\n" bits (t /. float_of_int reps *. 1e6))
    [ 512; 1024; 4096; 16384 ]

let abl_depth () =
  header "Ablation — IMH depth: randomized vs lexicographic insertion order";
  row "%8s %10s %12s %12s %12s %12s\n" "n" "leaves" "max(rand)" "avg(rand)" "max(lex)"
    "avg(lex)";
  List.iter
    (fun n ->
      let n = scaled n in
      let table = table_of n in
      let rand = Itree.build (Table.domain table) (Table.functions table) in
      let lex =
        Itree.build ~order:`Lexicographic (Table.domain table) (Table.functions table)
      in
      row "%8d %10d %12d %12.1f %12d %12.1f\n%!" n (Itree.leaf_count rand)
        (Itree.max_depth rand) (Itree.average_leaf_depth rand) (Itree.max_depth lex)
        (Itree.average_leaf_depth lex))
    [ 50; 100; 200 ]

let abl_correlation () =
  header "Ablation — owner cost vs data correlation (slope spread of the lines)";
  row "%12s %10s %12s %14s\n" "slope range" "leaves" "imh nodes" "mesh sigs";
  List.iter
    (fun slope_range ->
      let n = scaled 150 in
      let table = Workload.lines_1d ~slope_range ~n (Prng.create 777L) in
      let itree = Itree.build (Table.domain table) (Table.functions table) in
      let sigs, _ = Mesh.count_signatures table in
      row "%12d %10d %12d %14d\n%!" slope_range (Itree.leaf_count itree)
        (Itree.node_count itree) sigs)
    [ 10; 100; 1000; 10000 ]

let ext_2d () =
  header "Extension — 2-D weight domains (exact-simplex subdomains)";
  row "%8s %10s %12s %14s %14s\n" "n" "leaves" "build (s)" "one-sig cost" "multi cost";
  List.iter
    (fun n ->
      let table = Workload.scored ~n ~dims:2 (Prng.create 888L) in
      let one, t_build =
        time (fun () -> Ifmh.build ~scheme:Ifmh.One_signature table dry_signer)
      in
      let multi = Ifmh.build ~scheme:Ifmh.Multi_signature table dry_signer in
      let cost index =
        let rng = query_rng () in
        let total = ref 0 in
        for _ = 1 to 20 do
          let x = Workload.weight_point table rng in
          Metrics.reset ();
          ignore (Server.answer index (Query.top_k ~x ~k:3));
          total := !total + Metrics.total_node_visits (Metrics.snapshot ())
        done;
        float_of_int !total /. 20.
      in
      row "%8d %10d %12.2f %14.1f %14.1f\n%!" n
        (Itree.leaf_count (Ifmh.itree one))
        t_build (cost one) (cost multi))
    [ 6; 9; 12; 15 ]

let abl_batch () =
  header "Ablation — batched queries: shared vs per-query subdomain proofs";
  let n = scaled 300 in
  let c = ctx_of n in
  row "(n = %d, one-signature, m top-k queries at one input)\n" n;
  row "%8s %14s %16s %10s\n" "m" "batched B" "separate B" "saving";
  let rng = query_rng () in
  let x = Workload.weight_point c.table rng in
  List.iter
    (fun m ->
      let queries = List.init m (fun k -> Query.top_k ~x ~k:(k + 1)) in
      let resp = Batch.answer c.one ~x queries in
      let batched = Batch.size_bytes resp in
      let separate =
        List.fold_left
          (fun acc (sr : Server.response) -> acc + Vo.size_bytes sr.Server.vo)
          0 (Batch.to_responses resp)
      in
      row "%8d %14d %16d %9.0f%%\n%!" m batched separate
        (100. *. (1. -. (float_of_int batched /. float_of_int separate))))
    [ 1; 2; 4; 8; 16 ]

let abl_count () =
  header "Ablation — verifiable COUNT vs full range retrieval (bytes on the wire)";
  let n = scaled 400 in
  let c = ctx_of n in
  row "(n = %d, one-signature)\n" n;
  row "%8s %12s %16s %12s\n" "|match|" "count VO" "range VO+R(q)" "ratio";
  let rng = query_rng () in
  List.iter
    (fun frac ->
      let size = max 1 (n * frac / 100) in
      let x = Workload.weight_point c.table rng in
      let l, u = Workload.range_for_result_size c.table ~x ~size in
      let cresp = Count.answer c.one ~x ~l ~u in
      let rresp = Server.answer c.one (Query.range ~x ~l ~u) in
      let count_bytes = Count.size_bytes cresp in
      let range_bytes = Vo.size_bytes rresp.Server.vo + Server.response_result_size rresp in
      row "%8d %12d %16d %11.1fx\n%!" size count_bytes range_bytes
        (float_of_int range_bytes /. float_of_int count_bytes))
    [ 5; 20; 50; 80; 100 ]

(* Update cost, with hard-failing deterministic signature laws: a
   one-sig apply issues exactly 1 signature; a multi-sig apply issues
   exactly as many as a from-scratch rebuild, one per subdomain of the
   updated index; and at b = 1 the mesh re-signs fewer than the
   multi-sig apply. Signing is counted in Metrics, so the laws are
   immune to runner noise; wall seconds are evidence only. *)
let abl_update () =
  header "Ablation — incremental maintenance: apply vs full rebuild (RSA-512)";
  let n = scaled 200 in
  let table = table_of n in
  let kp = Lazy.force rsa_keypair in
  let one = Ifmh.build ~scheme:Ifmh.One_signature ~epoch:1 table kp in
  let multi = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table kp in
  let mesh = Mesh.build table kp in
  row "(n = %d, batch of b random modifies; sig = RSA signatures issued;\n" n;
  row " one-sig pays 1 signature + a full hash re-propagation, multi-sig\n";
  row " one signature per subdomain [%d here] + no propagation, mesh one\n"
    (Itree.leaf_count (Ifmh.itree multi));
  row " per dirtied run; rebuild = from-scratch multi-sig build)\n";
  let fail b fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "abl-update: b=%d %s" b m)) fmt
  in
  let measure f =
    Metrics.reset ();
    let r, t = time f in
    (r, (Metrics.snapshot ()).Metrics.sign_ops, t)
  in
  row "%6s | %8s %8s | %9s %8s | %8s %8s | %11s %9s\n" "b" "one sig" "one s" "multi sig"
    "multi s" "mesh sig" "mesh s" "rebuild sig" "rebuild s";
  List.iter
    (fun b ->
      let rng = Prng.create (Int64.of_int (0xAB10 + b)) in
      let changes =
        List.init b (fun _ ->
            Update.Modify
              (Aqv_db.Record.make ~id:(Prng.int rng n)
                 ~attrs:
                   [|
                     Q.of_int (Prng.int_in rng (-1000) 1000);
                     Q.of_int (Prng.int_in rng 0 1000);
                   |]
                 ()))
      in
      let _, s_one, t_one = measure (fun () -> Ifmh.apply kp changes one) in
      let multi', s_multi, t_multi = measure (fun () -> Ifmh.apply kp changes multi) in
      let _, s_mesh, t_mesh = measure (fun () -> Mesh.apply kp changes mesh) in
      let _, s_reb, t_reb =
        measure (fun () ->
            Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:2
              (Update.apply_table changes table) kp)
      in
      List.iter
        (fun (variant, sigs, secs) ->
          json_add
            [
              ("figure", J_str "abl-update");
              ("n", J_int n);
              ("batch", J_int b);
              ("variant", J_str variant);
              ("sign_ops", J_int sigs);
              ("wall_s", J_num secs);
            ])
        [
          ("one-sig-apply", s_one, t_one);
          ("multi-sig-apply", s_multi, t_multi);
          ("mesh-apply", s_mesh, t_mesh);
          ("multi-sig-rebuild", s_reb, t_reb);
        ];
      row "%6d | %8d %8.3f | %9d %8.3f | %8d %8.3f | %11d %9.3f\n%!" b s_one t_one s_multi
        t_multi s_mesh t_mesh s_reb t_reb;
      let subdomains = Itree.leaf_count (Ifmh.itree multi') in
      if s_one <> 1 then fail b "one-sig apply issued %d signatures, not 1" s_one;
      if s_multi <> subdomains then
        fail b "multi-sig apply issued %d signatures for %d subdomains" s_multi subdomains;
      if s_reb <> subdomains then
        fail b "rebuild issued %d signatures for %d subdomains" s_reb subdomains;
      if b = 1 && s_mesh >= s_multi then
        fail b "mesh apply issued %d signatures, not fewer than multi-sig's %d" s_mesh s_multi)
    [ 1; 2; 4; 8; 16 ]

let abl_recovery () =
  header "Ablation — crash recovery: snapshot + WAL replay vs fresh build";
  let module Store = Aqv_store.Store in
  let n = scaled 200 in
  let table = table_of n in
  let kp = dry_signer in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  row "(n = %d, dry signer; 'recover' coalesces all surviving frames into\n" n;
  row " one net change list and a single rebuild, so its cost stays ~flat\n";
  row " in log length; 'seq' is the frame-by-frame reference replay — one\n";
  row " rebuild per frame, linear in k; compaction resets both to the\n";
  row " snapshot-load floor)\n";
  row "%8s | %10s %10s | %10s %10s | %12s | %12s\n" "frames" "recover s" "coalesced"
    "seq s" "replayed" "compacted s" "fresh build";
  let recover_hash_ops = ref [] in
  List.iter
    (fun k ->
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "aqv-bench-recovery-%d-%d" (Unix.getpid ()) k)
      in
      if Sys.file_exists dir then rm_rf dir;
      let index0 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table kp in
      let store = Store.publish ~dir index0 in
      let rng = Prng.create (Int64.of_int (0xEC07 + k)) in
      let tbl = ref table and index = ref index0 in
      for _ = 1 to k do
        let changes =
          [
            Update.Modify
              (Aqv_db.Record.make
                 ~id:(Prng.int rng n)
                 ~attrs:
                   [|
                     Q.of_int (Prng.int_in rng (-1000) 1000);
                     Q.of_int (Prng.int_in rng 0 1000);
                   |]
                 ());
          ]
        in
        let updated = Ifmh.apply kp changes !index in
        Store.append store ~base:!index (Ifmh.delta ~changes updated);
        tbl := Update.apply_table changes !tbl;
        index := updated
      done;
      Store.close store;
      let hashed f =
        Metrics.reset ();
        let before = Metrics.snapshot () in
        let x, t = time f in
        (x, t, (Metrics.diff (Metrics.snapshot ()) before).Metrics.hash_ops)
      in
      let recover () =
        match Store.open_dir dir with
        | Error e -> failwith (Aqv_store.Error.to_string e)
        | Ok (store, _, recovery) ->
          Store.close store;
          recovery
      in
      let recovery, t_rec, h_rec = hashed recover in
      let recovery_seq, t_seq, h_seq =
        hashed (fun () ->
            match Store_ref.recover dir with
            | Error e -> failwith (Aqv_store.Error.to_string e)
            | Ok r -> r)
      in
      recover_hash_ops := (k, h_rec) :: !recover_hash_ops;
      (* compact, then recover again: the log-length term disappears *)
      (match Store.open_dir dir with
      | Error e -> failwith (Aqv_store.Error.to_string e)
      | Ok (store, recovered, _) ->
        Store.compact store recovered;
        Store.close store);
      let _, t_compacted, h_compacted = hashed recover in
      let _, t_fresh, h_fresh =
        hashed (fun () ->
            Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:(1 + k) !tbl kp)
      in
      List.iter
        (fun (variant, replayed, coalesced, secs, hashes) ->
          json_add
            [
              ("figure", J_str "abl-recovery");
              ("n", J_int n);
              ("frames", J_int k);
              ("variant", J_str variant);
              ("replayed", J_int replayed);
              ("coalesced", J_int coalesced);
              ("hash_ops", J_int hashes);
              ("wall_s", J_num secs);
            ])
        [
          ("recover", recovery.Store.replayed, recovery.Store.replayed, t_rec, h_rec);
          ("recover-sequential", recovery_seq.Store_ref.replayed, 0, t_seq, h_seq);
          ("recover-compacted", 0, 0, t_compacted, h_compacted);
          ("fresh-build", 0, 0, t_fresh, h_fresh);
        ];
      row "%8d | %10.3f %10d | %10.3f %10d | %12.3f | %12.3f\n%!" k t_rec
        recovery.Store.replayed t_seq recovery_seq.Store_ref.replayed t_compacted
        t_fresh;
      rm_rf dir)
    [ 0; 1; 2; 4; 8; 16 ];
  (* hash_ops are deterministic, so this guard is immune to runner
     noise: a super-linear ratio means recovery went back to one
     rebuild per frame *)
  let h1 = List.assoc 1 !recover_hash_ops and h16 = List.assoc 16 !recover_hash_ops in
  let ratio = float_of_int h16 /. float_of_int h1 in
  row "coalesced recovery hash_ops: k=1 %d, k=16 %d, ratio %.2f\n%!" h1 h16 ratio;
  if ratio >= 3.0 then
    failwith
      (Printf.sprintf "abl-recovery: recovery cost grew super-linearly: %.2fx over 16 frames"
         ratio)

(* Point location, with a CI-guarded deterministic counter: it must grow
   sub-linearly in the subdomain count S (binary search sign tests vs
   the linear-scan reference, and the I-tree descent). Sign tests are
   deterministic, so the guard is immune to runner noise. *)
let abl_serve_locate () =
  header "Ablation — serving: O(log S) point location";
  let probes = 64 in
  row "(location: %d evenly spaced probes; sign tests are deterministic)\n" probes;
  row "%8s %8s | %10s %10s %8s | %10s\n" "n" "S" "mesh-bin" "mesh-scan" "ratio"
    "itree";
  let location n =
    let c = ctx_of n in
    let bounds = Mesh.cell_bounds c.mesh in
    let lo = fst bounds.(0) and hi = snd bounds.(Array.length bounds - 1) in
    let point k =
      Q.add lo (Q.mul (Q.sub hi lo) (Q.of_ints ((2 * k) + 1) (2 * probes)))
    in
    let cost f =
      Metrics.reset ();
      for k = 0 to probes - 1 do
        ignore (f (point k))
      done;
      (Metrics.snapshot ()).Metrics.locate_sign_tests
    in
    let s = Mesh.subdomain_count c.mesh in
    let bin = cost (Mesh.locate_cell c.mesh) in
    let scan = cost (Mesh_ref.locate_cell_scan c.mesh) in
    let itree = Ifmh.itree c.one in
    let it = cost (fun x -> ignore (Itree.locate itree [| x |]); 0) in
    row "%8d %8d | %10d %10d %8.2f | %10d\n%!" n s bin scan
      (float_of_int scan /. float_of_int bin)
      it;
    json_add
      [
        ("figure", J_str "abl-serve-locate");
        ("series", J_str "location");
        ("n", J_int n);
        ("subdomains", J_int s);
        ("mesh_binary_sign_tests", J_int bin);
        ("mesh_scan_sign_tests", J_int scan);
        ("itree_sign_tests", J_int it);
      ];
    (s, bin, it)
  in
  (* fixed sizes (not AQV_BENCH_SCALE'd): the guard compares S ~16 vs
     S ~256 and must be reproducible *)
  let s_small, bin_small, it_small = location 12 in
  let s_big, bin_big, it_big = location 36 in
  if s_big < 8 * s_small then
    failwith
      (Printf.sprintf "abl-serve-locate: S grew only %dx (%d -> %d), guard needs >= 8x"
         (s_big / max 1 s_small) s_small s_big);
  let ratio name small big =
    let r = float_of_int big /. float_of_int small in
    row "%s sign tests: S %dx -> cost %.2fx\n%!" name (s_big / s_small) r;
    if r >= 3.0 then
      failwith
        (Printf.sprintf "abl-serve-locate: %s location cost grew %.2fx over %dx subdomains"
           name r (s_big / s_small))
  in
  ratio "mesh" bin_small bin_big;
  ratio "itree" it_small it_big

(* Crossing enumeration at scale. Every dimension runs the same
   antipodal-corner inversion sweep, and only crossing pairs ever get a
   pair record. 1-D full builds: two shapes bound the story — the
   default dense lines (crossings a constant ~1/3 of the pair space, so
   the Merkle back-end dominates the wall) and a sparse variant with
   intercepts spread over 10^6 (crossings ~0.1% of pairs). These rows
   guard the sweep's back-end: each subdomain boundary applies its FMH
   leaf changes in one [Mht.set_many], so an adjacent swap rehashes the
   union of two root paths, about ceil(log2(n+2)) + 1 node hashes (two
   separate sets paid about 2 ceil(log2(n+2))). A single swap costs
   between floor(log2(n+2)) and 2 ceil(log2(n+2)) - 1 depending on
   where the two leaves' paths meet, so the law is on the mean per
   crossing, within one of ceil(log2(n+2)) + 1, on rows with at least
   32 crossings. Sparse 2-D and 3-D enumeration-only series (2 and 4
   antipodal corner pairs) hard-fail at their smallest n unless the
   crossing count equals the all-pairs reference's ([Crossings_ref],
   one exact classification per pair). Counters are deterministic, so
   the guards are immune to runner noise; wall seconds go to JSON
   only. *)
let ceil_log2 n =
  let rec go d p = if p >= n then d else go (d + 1) (2 * p) in
  go 0 1

let abl_build_scale () =
  header "Ablation — crossing enumeration: antipodal-corner inversion sweep";
  row "(1-D rows are full builds, 2-D and 3-D rows enumeration only)\n";
  row "%-9s %7s | %8s | %10s | %9s\n" "shape" "n" "wall s" "crossings" "hash_ops";
  let fail shape n fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "abl-build-scale: %s n=%d %s" shape n m)) fmt
  in
  let report shape n wall (s : Metrics.snapshot) =
    let crossings = s.Metrics.build_crossings in
    row "%-9s %7d | %8.3f | %10d | %9d\n%!" shape n wall crossings s.Metrics.hash_ops;
    json_add
      [
        ("figure", J_str "abl-build-scale");
        ("shape", J_str shape);
        ("n", J_int n);
        ("wall_s", J_num wall);
        ("crossings", J_int crossings);
        ("hash_ops", J_int s.Metrics.hash_ops);
      ];
    crossings
  in
  let run_1d shape mk n =
    let table = mk n in
    Metrics.reset ();
    let idx, wall =
      time (fun () -> Ifmh.build ~scheme:Ifmh.Multi_signature table dry_signer)
    in
    let s = Metrics.snapshot () in
    let crossings = report shape n wall s in
    (* sweep node hashes: a dry multi-signature build hashes the n
       records, the first cell's full FMH (n + 1 interior nodes over
       n + 2 leaves), one signing digest per subdomain, and the sweep *)
    let sweep =
      s.Metrics.hash_ops - n - (n + 1) - (Ifmh.stats idx).Ifmh.subdomains
    in
    let per_crossing = float_of_int sweep /. float_of_int (max 1 crossings) in
    let depth = ceil_log2 (n + 2) in
    row "%-9s %7d   sweep node hashes per crossing %.2f (law ~%d, fails above %d; two sets paid ~%d)\n%!"
      shape n per_crossing (depth + 1) (depth + 2) (2 * depth);
    json_add
      [
        ("figure", J_str "abl-build-scale-sweep");
        ("shape", J_str shape);
        ("n", J_int n);
        ("sweep_hashes", J_int sweep);
        ("crossings", J_int crossings);
        ("sweep_hashes_per_crossing", J_num per_crossing);
        ("ceil_log2_leaves", J_int depth);
      ];
    if crossings >= 32 && per_crossing > float_of_int (depth + 2) then
      fail shape n "sweep paid %.2f node hashes per crossing, law is ceil(log2(n+2)) + 1 = %d"
        per_crossing (depth + 1)
  in
  (* dense rows share [table_of]'s cache with the other figures *)
  List.iter (fun n -> run_1d "dense" table_of (scaled n)) [ 250; 500; 1000 ];
  let sparse n =
    Workload.lines_1d ~intercept_range:1_000_000 ~n
      (Prng.create (Int64.add master_seed (Int64.of_int (7_000_000 + n))))
  in
  List.iter (fun n -> run_1d "sparse" sparse (scaled n)) [ 1000; 2000; 4000 ];
  (* the d-D analogue of the sparse lines: coefficients in ±1000,
     intercepts spread over 10^6, so crossings stay a sliver of the pair
     space. Sized unscaled; the smallest n of each series is also
     checked against the all-pairs reference. *)
  let sparse_fns dims offset n =
    let rng = Prng.create (Int64.add master_seed (Int64.of_int (offset + n))) in
    Array.init n (fun _ ->
        let coeffs = Array.init dims (fun _ -> Prng.int_in rng (-1000) 1000) in
        Aqv_num.Linfun.of_ints coeffs (Prng.int_in rng 0 1_000_000))
  in
  let series shape dims offset ns =
    let dom = Aqv_num.Domain.unit_box dims in
    List.iteri
      (fun k n ->
        let fns = sparse_fns dims offset n in
        Metrics.reset ();
        let cr, wall = time (fun () -> Crossings.enumerate ~pool:(Pool.default ()) dom fns) in
        ignore (Sys.opaque_identity cr);
        let crossings = report shape n wall (Metrics.snapshot ()) in
        if k = 0 then begin
          let expect = Crossings.count (Aqv_ref.Crossings_ref.enumerate dom fns) in
          if crossings <> expect then
            fail shape n "found %d crossings, the all-pairs reference %d" crossings expect
        end)
      ns
  in
  series "sparse-2d" 2 8_000_000 [ 300; 600; 2400; 9600 ];
  series "sparse-3d" 3 9_000_000 [ 150; 600; 2400 ]

(* ------------------------- bechamel micros -------------------------- *)

let micro_tests () =
  let open Bechamel in
  let kp = Lazy.force rsa_keypair in
  let kpd = Lazy.force dsa_keypair in
  let d = Aqv_crypto.Sha256.digest "probe" in
  let sig_rsa = kp.Signer.sign d in
  let sig_dsa = kpd.Signer.sign d in
  let blob = String.make 1024 'x' in
  let n = scaled 200 in
  let c = ctx_of n in
  let rng = query_rng () in
  let x = Workload.weight_point c.table rng in
  let q3 = Query.top_k ~x ~k:3 in
  let small_table = table_of 50 in
  let real_small = Ifmh.build ~scheme:Ifmh.One_signature small_table kp in
  let xq = Workload.weight_point small_table rng in
  let small_q = Query.top_k ~x:xq ~k:3 in
  let small_resp = Server.answer real_small small_q in
  (* pool overhead: the same cheap map sequentially and through the
     pool's chunking/queueing machinery (dominated by dispatch when the
     per-element work is this small) *)
  let pool = Pool.default () in
  let pool_input = Array.init 4096 (fun i -> i) in
  let cheap x = (x * 2654435761) lxor (x lsr 7) in
  (* a hot-read-shaped reply: intercepts up to 10^6, a weight over 1009,
     a 100-record range window (about hot-read's mean reply size) *)
  let hot_table =
    Workload.lines_1d ~intercept_range:1_000_000 ~n:(scaled 200) (Prng.create 0x407L)
  in
  let hot = Ifmh.build ~scheme:Ifmh.Multi_signature hot_table dry_signer in
  let xh = Workload.weight_point hot_table rng in
  let l, u =
    Workload.range_for_result_size hot_table ~x:xh ~size:(min 100 (Table.size hot_table))
  in
  let hot_reply = Protocol.Answer (Server.answer hot (Query.range ~x:xh ~l ~u)) in
  let hot_bytes =
    let w = Aqv_util.Wire.writer () in
    Protocol.encode_reply w hot_reply;
    Aqv_util.Wire.contents w
  in
  let fns = Table.functions hot_table in
  let sa = Aqv_num.Linfun.eval fns.(0) xh and sb = Aqv_num.Linfun.eval fns.(1) xh in
  [
    Test.make ~name:"pool-map-4k-seq"
      (Staged.stage (fun () -> Array.map cheap pool_input));
    Test.make ~name:"pool-map-4k-par"
      (Staged.stage (fun () -> Pool.parallel_map pool cheap pool_input));
    Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Aqv_crypto.Sha256.digest blob));
    Test.make ~name:"rsa512-sign" (Staged.stage (fun () -> kp.Signer.sign d));
    Test.make ~name:"rsa512-verify" (Staged.stage (fun () -> kp.Signer.verify d sig_rsa));
    Test.make ~name:"dsa-verify" (Staged.stage (fun () -> kpd.Signer.verify d sig_dsa));
    Test.make ~name:"itree-locate" (Staged.stage (fun () -> Itree.locate (Ifmh.itree c.one) x));
    Test.make ~name:"ifmh-answer-top3" (Staged.stage (fun () -> Server.answer c.one q3));
    Test.make ~name:"mesh-answer-top3" (Staged.stage (fun () -> Mesh.answer c.mesh q3));
    Test.make ~name:"client-verify-top3"
      (Staged.stage (fun () ->
           Client.verify (verifier_for kp small_table) small_q small_resp));
    Test.make ~name:"client-verify-top3-warm"
      (Staged.stage
         (let warm = verifier_for kp small_table in
          (* a ctx's first verification runs memo-free; the second fills it *)
          for _ = 1 to 2 do
            ignore (Client.verify warm small_q small_resp)
          done;
          fun () -> Client.verify warm small_q small_resp));
    Test.make ~name:"q-compare" (Staged.stage (fun () -> Q.compare sa sb));
    Test.make ~name:"q-add" (Staged.stage (fun () -> Q.add sa sb));
    Test.make ~name:"reply-encode-hot"
      (Staged.stage (fun () ->
           let w = Aqv_util.Wire.writer () in
           Protocol.encode_reply w hot_reply;
           w));
    Test.make ~name:"reply-decode-hot"
      (Staged.stage (fun () -> Protocol.decode_reply (Aqv_util.Wire.reader hot_bytes)));
  ]

let run_micros () =
  header "Micro-benchmarks (bechamel; ns/run, OLS on monotonic clock)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          with
          | ols ->
            (match Analyze.OLS.estimates ols with
            | Some [ est ] -> row "%-24s %14.0f ns/run\n%!" name est
            | _ -> row "%-24s %14s\n%!" name "n/a")
          | exception _ -> row "%-24s %14s\n%!" name "n/a")
        results)
    (micro_tests ())

(* ------------------------------ driver ------------------------------ *)

let figures =
  [
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig6d", fig6d);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig7d", fig7d);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("abl-montgomery", abl_montgomery);
    ("abl-depth", abl_depth);
    ("abl-correlation", abl_correlation);
    ("abl-batch", abl_batch);
    ("abl-count", abl_count);
    ("abl-update", abl_update);
    ("abl-recovery", abl_recovery);
    ("abl-serve-locate", abl_serve_locate);
    ("abl-build-scale", abl_build_scale);
    ("ext-2d", ext_2d);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then List.iter (fun (id, _) -> print_endline id) figures
  else begin
    let find_arg key =
      let rec find = function
        | k :: v :: _ when k = key -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let only = find_arg "--only" in
    (* --only accepts a comma-separated list: --only fig6a,abl-serve-locate *)
    let wanted id =
      match only with
      | None -> true
      | Some o -> List.mem id (String.split_on_char ',' o)
    in
    let json_path = find_arg "--json" in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, run) ->
        if wanted id then begin
          let (), wall = time run in
          json_add [ ("figure", J_str id); ("wall_s", J_num wall) ]
        end)
      figures;
    if only = None && not (List.mem "--no-micro" args) then run_micros ();
    let total_s = Unix.gettimeofday () -. t0 in
    Printf.printf "\ntotal bench time: %.1fs\n" total_s;
    Option.iter (fun path -> write_json path ~total_s) json_path
  end
