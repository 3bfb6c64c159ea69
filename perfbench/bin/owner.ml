(* The owner role, one process: key generation, build, publish; later,
   on the runner's command, Modify updates through Ifmh.apply and a
   wire Republish. It talks to the runner in lines: commands on stdin,
   reports on stdout. Owner work runs on the default pool, so it never
   shares a process with the load generator. *)

open Aqv
open Aqv_crypto
open Aqv_db
open Perfbench_kit
module Store = Aqv_store.Store
module Roundtrip = Aqv_serve.Roundtrip
module Metrics = Aqv_util.Metrics

(* the ack of a republish can take as long as the server-side apply *)
let republish_opts = { Roundtrip.default_opts with read_timeout = 120. }

let ms a b = (b -. a) *. 1000.

(* Traced only: the stages Ifmh.build runs internally, called one by one
   through their public functions on the same table, after set-up. *)
let structure_stages table =
  let domain = Table.domain table and functions = Table.functions table in
  let t0 = Unix.gettimeofday () in
  let crossings = Crossings.enumerate ~pool:(Aqv_par.Pool.default ()) domain functions in
  let t1 = Unix.gettimeofday () in
  let itree = Itree.build ~crossings domain functions in
  let t2 = Unix.gettimeofday () in
  let sorting = Sorting.build ~crossings table itree in
  let t3 = Unix.gettimeofday () in
  Lines.metric "crossings.enumerate_ms" (ms t0 t1);
  Lines.metric "crossings.pairs_classified" (float_of_int crossings.Crossings.total);
  Lines.metric "crossings.count" (float_of_int (Crossings.count crossings));
  Lines.metric "itree.build_ms" (ms t1 t2);
  Lines.metric "itree.nodes" (float_of_int (Itree.node_count itree));
  Lines.metric "sorting.build_ms" (ms t2 t3);
  Lines.metric "sorting.subdomains" (float_of_int (Sorting.leaf_count sorting))

(* Traced only: the server's half of the last update — replay and WAL
   append — timed on a scratch store. *)
let server_side_stages dir base delta =
  let t0 = Unix.gettimeofday () in
  ignore (Ifmh.apply_delta delta base);
  let t1 = Unix.gettimeofday () in
  let probe = dir ^ ".probe" in
  let store = Store.publish ~dir:probe base in
  let t2 = Unix.gettimeofday () in
  Store.append store ~base delta;
  let t3 = Unix.gettimeofday () in
  Store.close store;
  List.iter (fun f -> Sys.remove (Filename.concat probe f)) (Array.to_list (Sys.readdir probe));
  Unix.rmdir probe;
  Lines.metric "ifmh.apply_delta_ms" (ms t0 t1);
  Lines.metric "store.append_ms" (ms t2 t3)

let run ~workload ~seed ~dir ~spans_path =
  let w = Option.get (Workloads.find workload) in
  let traced = Option.is_some spans_path in
  let rec_ = Spans.create () in
  let span ?parent ?start name f =
    if traced then Spans.time rec_ ?parent ?start name f else f Spans.no_parent
  in
  (* signing is timed through the keypair the build and apply receive *)
  let sign_parent = Atomic.make Spans.no_parent in
  let keypair =
    let kp =
      span "owner.keygen" (fun _ ->
          Signer.generate ~bits:512 Signer.Rsa (Aqv_util.Prng.create 1L))
    in
    if not traced then kp
    else
      {
        kp with
        Signer.sign =
          (fun d ->
            let t0 = Unix.gettimeofday () in
            let s = kp.Signer.sign d in
            ignore
              (Spans.record rec_ ~parent:(Atomic.get sign_parent) "signer.sign" t0
                 (Unix.gettimeofday ()));
            s);
      }
  in
  let table = span "owner.table" (fun _ -> Workloads.table w) in
  let m0 = Metrics.snapshot () in
  let index =
    span "ifmh.build" (fun id ->
        Atomic.set sign_parent id;
        Ifmh.build ~epoch:1 ~scheme:Ifmh.Multi_signature table keypair)
  in
  let build_hash_ops = (Metrics.diff (Metrics.snapshot ()) m0).Metrics.hash_ops in
  span "store.publish" (fun _ -> Store.close (Store.publish ~dir index));
  let wb = Aqv_util.Wire.writer () in
  Protocol.encode_bundle wb (Protocol.bundle_of_index index keypair.Signer.public);
  let tmp = Filename.concat dir "bundle.tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (Aqv_util.Wire.contents wb));
  Unix.rename tmp (Filename.concat dir "bundle.bin");
  Lines.say "published %d" (Unix.stat (Store.snapshot_path dir)).Unix.st_size;
  (* generated on the first command, so it never runs during set-up *)
  let trace = lazy (Workloads.updates w table ~seed) in
  let cur = ref index in
  let last_update = ref None in
  let apply_ms = ref [] and pair = ref (0, 0) and fmh = ref (0, 0) in
  let republish ~port ~count =
    let trace = Lazy.force trace in
    Lines.say "trace %s" trace.Workload.Trace.sha256_hex;
    if count > Array.length trace.Workload.Trace.republishes then
      failwith "owner: more updates asked than the trace holds";
    for i = 0 to count - 1 do
      let due = Unix.gettimeofday () in
      let id, attrs = trace.Workload.Trace.republishes.(i) in
      let changes = [ Update.Modify (Record.make ~id ~attrs ()) ] in
      let epoch = i + 2 in
      let base = !cur in
      let verdict =
        span ~start:due "republish" (fun rid ->
            let m0 = Metrics.snapshot () in
            let a0 = Unix.gettimeofday () in
            let next =
              span ~parent:rid "ifmh.apply" (fun id ->
                  Atomic.set sign_parent id;
                  Ifmh.apply ~epoch keypair changes base)
            in
            apply_ms := ms a0 (Unix.gettimeofday ()) :: !apply_ms;
            let m = Metrics.diff (Metrics.snapshot ()) m0 in
            pair := (fst !pair + m.Metrics.memo_pair_hits, snd !pair + m.Metrics.memo_pair_misses);
            fmh := (fst !fmh + m.Metrics.memo_fmh_hits, snd !fmh + m.Metrics.memo_fmh_misses);
            let delta = Ifmh.delta ~changes next in
            cur := next;
            match
              span ~parent:rid "roundtrip.ask" (fun _ ->
                  Roundtrip.with_connection ~opts:republish_opts ~port (fun fd ->
                      Roundtrip.ask ~opts:republish_opts fd (Protocol.Republish delta)))
            with
            | Protocol.Republished e when e = epoch ->
              last_update := Some (base, delta);
              Ok ()
            | Protocol.Republished e -> Error (Printf.sprintf "acked epoch %d, signed %d" e epoch)
            | Protocol.Refused m -> Error ("refused: " ^ m)
            | _ -> Error "unexpected reply"
            | exception e -> Error (Printexc.to_string e))
      in
      match verdict with
      | Ok () -> Lines.say "acked %d %.17g" i (ms due (Unix.gettimeofday ()))
      | Error m -> Lines.say "failed %d %s" i (String.map (function '\n' -> ' ' | c -> c) m)
    done;
    Lines.say "done"
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None | Some "quit" -> ()
    | Some line ->
      (match String.split_on_char ' ' line with
      | [ "republish"; port; count ] ->
        republish ~port:(int_of_string port) ~count:(int_of_string count)
      | _ -> failwith ("owner: unknown command " ^ line));
      loop ()
  in
  loop ();
  Option.iter
    (fun path ->
      let spans = Spans.to_array rec_ in
      let self = Spans.self_times spans in
      Array.iteri
        (fun i s ->
          if s.Spans.name = "ifmh.build" then begin
            Lines.metric "ifmh.build_ms" (ms s.Spans.start s.Spans.stop);
            Lines.metric "signer.sign_ms" (ms self.(i) (s.Spans.stop -. s.Spans.start))
          end
          else if s.Spans.name = "store.publish" then
            Lines.metric "store.publish_ms" (ms s.Spans.start s.Spans.stop))
        spans;
      Lines.metric "signer.sign_ops"
        (Array.fold_left
           (fun n s ->
             if s.Spans.name = "signer.sign" && s.Spans.parent >= 0
                && spans.(s.Spans.parent).Spans.name = "ifmh.build"
             then n +. 1.
             else n)
           0. spans);
      Lines.metric "ifmh.hash_ops" (float_of_int build_hash_ops);
      if !apply_ms <> [] then
        Lines.metric "ifmh.apply_ms" (Measure.median (Array.of_list !apply_ms));
      Lines.metric "memo.pair_hit_ratio" (Measure.ratio (fst !pair) (snd !pair));
      Lines.metric "memo.fmh_hit_ratio" (Measure.ratio (fst !fmh) (snd !fmh));
      structure_stages table;
      Option.iter (fun (base, delta) -> server_side_stages dir base delta) !last_update;
      Spans.save path spans)
    spans_path;
  Lines.say "bye"
