(* aqv: command-line front end.

     aqv stats  --records 200 --seed 7 --scheme multi
     aqv query  --records 200 --type topk --k 5 --at 0.37
     aqv query  --records 200 --type range --l 100 --u 250 --at 0.5 --tamper drop
     aqv query  --records 200 --type knn --k 3 --y 180 --at 0.25 --baseline
     aqv demo

   Everything is synthesized in-process from the seed (the library is a
   research artifact, not a storage engine): the CLI generates the
   table, builds the requested index, answers the query, verifies the
   response as the client would, and prints the cost counters. *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Metrics = Aqv_util.Metrics
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
open Aqv
open Aqv_baseline
open Cmdliner

(* ------------------------------ options ----------------------------- *)

let records_t =
  Arg.(value & opt int 100 & info [ "records"; "n" ] ~docv:"N" ~doc:"Number of records.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let scheme_t =
  let scheme_conv = Arg.enum [ ("one", `One); ("multi", `Multi) ] in
  Arg.(
    value
    & opt scheme_conv `One
    & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Signing scheme: $(b,one) or $(b,multi).")

let algo_t =
  let algo_conv = Arg.enum [ ("rsa", Signer.Rsa); ("dsa", Signer.Dsa) ] in
  Arg.(
    value & opt algo_conv Signer.Rsa
    & info [ "algo" ] ~docv:"ALGO" ~doc:"Signature algorithm.")

let baseline_t =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Use the signature-mesh baseline instead.")

let qtype_t =
  let qtype_conv = Arg.enum [ ("topk", `Topk); ("range", `Range); ("knn", `Knn) ] in
  Arg.(value & opt qtype_conv `Topk & info [ "type" ] ~docv:"TYPE" ~doc:"Query type.")

let k_t = Arg.(value & opt int 3 & info [ "k" ] ~doc:"k for top-k / KNN.")
let l_t = Arg.(value & opt string "0" & info [ "l" ] ~doc:"Range lower bound (decimal).")
let u_t = Arg.(value & opt string "100" & info [ "u" ] ~doc:"Range upper bound (decimal).")
let y_t = Arg.(value & opt string "0" & info [ "y" ] ~doc:"KNN target score (decimal).")

let at_t =
  Arg.(
    value & opt string "0.5"
    & info [ "at"; "x" ] ~docv:"X" ~doc:"Function input (decimal in [0,1]).")

let tamper_t =
  let tamper_conv =
    Arg.enum
      [
        ("none", `None);
        ("drop", `Drop);
        ("forge", `Forge);
        ("swap", `Swap);
        ("sigflip", `Sigflip);
      ]
  in
  Arg.(
    value
    & opt tamper_conv `None
    & info [ "tamper" ] ~docv:"ATTACK"
        ~doc:"Simulate a malicious server: $(b,drop), $(b,forge), $(b,swap) or $(b,sigflip).")

(* ------------------------------ helpers ----------------------------- *)

let make_table n seed = Workload.lines_1d ~n (Prng.create (Int64.of_int seed))

let make_query qtype ~x ~k ~l ~u ~y =
  match qtype with
  | `Topk -> Query.top_k ~x ~k
  | `Range -> Query.range ~x ~l:(Q.of_decimal l) ~u:(Q.of_decimal u)
  | `Knn -> Query.knn ~x ~k ~y:(Q.of_decimal y)

let print_metrics () =
  Format.printf "cost counters:@.  %a@." Metrics.pp (Metrics.snapshot ())

let tamper_result how result =
  match (how, result) with
  | `None, r -> r
  | `Drop, _ :: rest -> rest
  | `Drop, [] -> []
  | `Forge, r :: rest ->
    Record.make ~id:(Record.id r) ~attrs:[| Q.of_int 1; Q.of_int 1 |] ~payload:"forged" ()
    :: rest
  | `Forge, [] -> []
  | `Swap, a :: b :: rest -> b :: a :: rest
  | `Swap, short -> short
  | `Sigflip, r -> r

let flip_first_byte s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Bytes.to_string b
  end

(* ------------------------------ commands ---------------------------- *)

let run_stats n seed scheme algo =
  let table = make_table n seed in
  let kp = Signer.generate ~bits:512 algo (Prng.create 1L) in
  Metrics.reset ();
  let scheme = match scheme with `One -> Ifmh.One_signature | `Multi -> Ifmh.Multi_signature in
  let index = Ifmh.build ~scheme table kp in
  let s = Ifmh.stats index in
  Format.printf "table: %a@." Table.pp table;
  Format.printf "scheme: %s, algorithm: %s@." (Ifmh.scheme_name scheme)
    (Signer.algorithm_name algo);
  Format.printf "subdomains: %d@." s.Ifmh.subdomains;
  Format.printf "IMH nodes: %d@." s.Ifmh.imh_nodes;
  Format.printf "intersections in domain: %d@." s.Ifmh.intersections;
  Format.printf "signatures: %d@." s.Ifmh.signatures;
  Format.printf "logical size: %.2f MB@." (float_of_int s.Ifmh.logical_size_bytes /. 1e6);
  let mesh_sigs, cells = Mesh.count_signatures table in
  Format.printf "signature-mesh baseline would need: %d signatures over %d cells@." mesh_sigs
    cells;
  print_metrics ()

let run_query n seed scheme algo baseline qtype k l u y at tamper =
  let table = make_table n seed in
  let kp = Signer.generate ~bits:512 algo (Prng.create 1L) in
  let x = [| Q.of_decimal at |] in
  let query = make_query qtype ~x ~k ~l ~u ~y in
  Format.printf "query: %a@." Query.pp query;
  Metrics.reset ();
  if baseline then begin
    let mesh = Mesh.build table kp in
    let resp = Mesh.answer mesh query in
    let resp = { resp with Mesh.result = tamper_result tamper resp.Mesh.result } in
    let resp =
      if tamper = `Sigflip then begin
        match resp.Mesh.vo.Mesh.links with
        | l0 :: rest ->
          {
            resp with
            Mesh.vo =
              {
                resp.Mesh.vo with
                Mesh.links = { l0 with Mesh.signature = flip_first_byte l0.Mesh.signature } :: rest;
              };
          }
        | [] -> resp
      end
      else resp
    in
    Format.printf "result (%d records):@." (List.length resp.Mesh.result);
    List.iter (fun r -> Format.printf "  %a@." Record.pp r) resp.Mesh.result;
    Format.printf "VO: %d bytes, %d signatures@."
      (Mesh.vo_size_bytes resp.Mesh.vo)
      (List.length resp.Mesh.vo.Mesh.links);
    (match
       Mesh.verify ~template:(Table.template table) ~domain:(Table.domain table)
         ~verify_signature:kp.Signer.verify query resp
     with
    | Ok () -> Format.printf "verification: ACCEPTED@."
    | Error r -> Format.printf "verification: REJECTED (%s)@." (Semantics.rejection_to_string r))
  end
  else begin
    let scheme =
      match scheme with `One -> Ifmh.One_signature | `Multi -> Ifmh.Multi_signature
    in
    let index = Ifmh.build ~scheme table kp in
    let resp = Server.answer index query in
    let resp = { resp with Server.result = tamper_result tamper resp.Server.result } in
    let resp =
      if tamper = `Sigflip then
        {
          resp with
          Server.vo =
            { resp.Server.vo with Vo.signature = flip_first_byte resp.Server.vo.Vo.signature };
        }
      else resp
    in
    Format.printf "result (%d records):@." (List.length resp.Server.result);
    List.iter (fun r -> Format.printf "  %a@." Record.pp r) resp.Server.result;
    Format.printf "VO: %a, %d bytes@." Vo.pp resp.Server.vo (Vo.size_bytes resp.Server.vo);
    let ctx =
      Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
        ~verify_signature:kp.Signer.verify
    in
    match Client.verify ctx query resp with
    | Ok () -> Format.printf "verification: ACCEPTED@."
    | Error r -> Format.printf "verification: REJECTED (%s)@." (Client.rejection_to_string r)
  end;
  print_metrics ()

let run_rank n seed scheme algo record_id at =
  let table = make_table n seed in
  let kp = Signer.generate ~bits:512 algo (Prng.create 1L) in
  let scheme = match scheme with `One -> Ifmh.One_signature | `Multi -> Ifmh.Multi_signature in
  let index = Ifmh.build ~scheme table kp in
  let x = [| Q.of_decimal at |] in
  Metrics.reset ();
  match Server.rank index ~x ~record_id with
  | None -> Format.printf "no record with id %d@." record_id
  | Some resp ->
    let ctx =
      Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
        ~verify_signature:kp.Signer.verify
    in
    (match Client.verify_rank ctx ~x ~record_id resp with
    | Ok rank ->
      Format.printf "record %d has verified rank %d of %d at x=%s (0 = lowest score)@."
        record_id rank n at
    | Error r -> Format.printf "rank REJECTED (%s)@." (Client.rejection_to_string r));
    print_metrics ()

let run_demo () =
  run_stats 60 42 `Multi Signer.Rsa;
  print_newline ();
  run_query 60 42 `Multi Signer.Rsa false `Topk 5 "0" "100" "0" "0.31" `None;
  print_newline ();
  print_endline "now with a malicious server dropping a record:";
  run_query 60 42 `One Signer.Rsa false `Topk 5 "0" "100" "0" "0.31" `Drop

(* ----------------------------- cmdliner ----------------------------- *)

let stats_cmd =
  let doc = "Build an index and print its statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ records_t $ seed_t $ scheme_t $ algo_t)

let query_cmd =
  let doc = "Answer a query, verify the response, print cost counters." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run_query $ records_t $ seed_t $ scheme_t $ algo_t $ baseline_t $ qtype_t $ k_t
      $ l_t $ u_t $ y_t $ at_t $ tamper_t)

let record_id_t =
  Arg.(value & opt int 0 & info [ "record" ] ~docv:"ID" ~doc:"Record id for rank queries.")

let rank_cmd =
  let doc = "Prove a record's rank under a given function input." in
  Cmd.v (Cmd.info "rank" ~doc)
    Term.(const run_rank $ records_t $ seed_t $ scheme_t $ algo_t $ record_id_t $ at_t)

let demo_cmd =
  let doc = "End-to-end demonstration." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run_demo $ const ())

let () =
  let doc = "verifiable analytic query results (IFMH-tree)" in
  let info = Cmd.info "aqv" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ stats_cmd; query_cmd; rank_cmd; demo_cmd ]))
