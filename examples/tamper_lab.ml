(* Tamper lab: a catalogue of server-side attacks and the rejection each
   one triggers, under both signing schemes and against the
   signature-mesh baseline. A compact, runnable version of the paper's
   security analysis (§4.1).

   Run with: dune exec examples/tamper_lab.exe *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
open Aqv
open Aqv_baseline

let table = Workload.lines_1d ~n:40 (Prng.create 99L)
let keypair = Signer.generate ~bits:512 Signer.Rsa (Prng.create 98L)

let ctx =
  Client.make_ctx ~template:(Table.template table) ~domain:(Table.domain table)
    ~verify_signature:keypair.Signer.verify

let forged id = Record.make ~id ~attrs:[| Q.of_int 1; Q.of_int 1 |] ~payload:"forged" ()

let report label query resp =
  match Client.verify ctx query resp with
  | Ok () -> Printf.printf "  %-28s ACCEPTED\n" label
  | Error r -> Printf.printf "  %-28s rejected: %s\n" label (Client.rejection_to_string r)

let attack_suite scheme =
  Printf.printf "\n--- scheme: %s ---\n" (Ifmh.scheme_name scheme);
  let index = Ifmh.build ~scheme table keypair in
  let x = Workload.weight_point table (Prng.create 97L) in
  let l, u = Workload.range_for_result_size table ~x ~size:6 in
  let query = Query.range ~x ~l ~u in
  let resp = Server.answer index query in
  report "honest response" query resp;
  report "drop a middle record" query
    { resp with Server.result = List.filteri (fun i _ -> i <> 3) resp.Server.result };
  report "substitute a record" query
    {
      resp with
      Server.result =
        List.mapi (fun i r -> if i = 2 then forged (Record.id r) else r) resp.Server.result;
    };
  report "swap two records" query
    {
      resp with
      Server.result =
        (match resp.Server.result with a :: b :: rest -> b :: a :: rest | l -> l);
    };
  report "forge the left boundary" query
    { resp with Server.vo = { resp.Server.vo with Vo.left = Vo.Boundary_record (forged 999) } };
  report "shift the window" query
    {
      resp with
      Server.vo = { resp.Server.vo with Vo.window_lo = resp.Server.vo.Vo.window_lo + 1 };
    };
  report "lie about the table size" query
    {
      resp with
      Server.vo = { resp.Server.vo with Vo.n_leaves = resp.Server.vo.Vo.n_leaves + 5 };
    };
  (let s = Bytes.of_string resp.Server.vo.Vo.signature in
   Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 1));
   report "flip a signature bit" query
     { resp with Server.vo = { resp.Server.vo with Vo.signature = Bytes.to_string s } });
  (* a correctly signed answer... for a different subdomain *)
  let x2 = Workload.weight_point table (Prng.create 96L) in
  let l2, u2 = Workload.range_for_result_size table ~x:x2 ~size:6 in
  report "replay another subdomain" query (Server.answer index (Query.range ~x:x2 ~l:l2 ~u:u2))

let mesh_suite () =
  Printf.printf "\n--- signature-mesh baseline ---\n";
  let mesh = Mesh.build table keypair in
  let x = Workload.weight_point table (Prng.create 95L) in
  let l, u = Workload.range_for_result_size table ~x ~size:6 in
  let query = Query.range ~x ~l ~u in
  let resp = Mesh.answer mesh query in
  let report label resp =
    match
      Mesh.verify ~template:(Table.template table) ~domain:(Table.domain table)
        ~verify_signature:keypair.Signer.verify query resp
    with
    | Ok () -> Printf.printf "  %-28s ACCEPTED\n" label
    | Error r -> Printf.printf "  %-28s rejected: %s\n" label (Semantics.rejection_to_string r)
  in
  report "honest response" resp;
  report "drop a middle record"
    { resp with Mesh.result = List.filteri (fun i _ -> i <> 3) resp.Mesh.result };
  report "substitute a record"
    {
      resp with
      Mesh.result =
        List.mapi (fun i r -> if i = 2 then forged (Record.id r) else r) resp.Mesh.result;
    };
  match resp.Mesh.vo.Mesh.links with
  | l0 :: rest ->
    let s = Bytes.of_string l0.Mesh.signature in
    Bytes.set s 1 (Char.chr (Char.code (Bytes.get s 1) lxor 2));
    report "flip a signature bit"
      {
        resp with
        Mesh.vo =
          {
            resp.Mesh.vo with
            Mesh.links = { l0 with Mesh.signature = Bytes.to_string s } :: rest;
          };
      }
  | [] -> ()

let () =
  Printf.printf "tamper lab: %d records, RSA-512, every attack must be rejected\n"
    (Table.size table);
  attack_suite Ifmh.One_signature;
  attack_suite Ifmh.Multi_signature;
  mesh_suite ()
