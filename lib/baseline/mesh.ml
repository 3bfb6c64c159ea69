module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Domain = Aqv_num.Domain
module Pvec = Aqv_util.Pvec
module W = Aqv_util.Wire
module Sha256 = Aqv_crypto.Sha256
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Template = Aqv_db.Template

let chain_tag = "\x07"

(* Tokens: record positions 0..n-1, then MIN = n, MAX = n+1. *)

type cell = { lob : Q.t; hib : Q.t; order : int Pvec.t }

type run = { s : int; e : int; digest : string; signature : string }

type t = {
  table : Table.t;
  cells : cell array;
  runs : (int * int, run list) Hashtbl.t;
  n : int;
  signatures : int;
}

type link = { span : Q.t * Q.t; signature : string }

type vo = {
  cell_bounds : Q.t * Q.t;
  left : Vo.boundary;
  right : Vo.boundary;
  links : link list;
}

type response = { result : Record.t list; vo : vo }

let subdomain_count t = Array.length t.cells
let signature_count t = t.signatures

(* ------------------------------ sweep ------------------------------ *)

(* The mesh rides [Sorting.sweep_1d], the one 1-D sweep, over the
   crossing set of [Crossings.enumerate]. *)
let crossings ?pool ~caller table =
  if Table.dim table <> 1 then invalid_arg (caller ^ ": 1-D tables only");
  Crossings.enumerate ?pool (Table.domain table) (Table.functions table)

(* Pair slot k joins tokens k and k+1 of [MIN; order; MAX]. *)
let pair_at n order k =
  let tok i = if i = 0 then n else if i = n + 1 then n + 1 else Pvec.get order (i - 1) in
  (tok k, tok (k + 1))

(* A boundary read as adjacency changes: a moved position p touches only
   slots p and p+1, and each such slot whose pair differs from the
   previous cell's ends the old adjacency and starts the new one.
   Returns the [(ended, started)] pairs, by slot. *)
let adjacency_changes n prev order moved =
  List.concat_map (fun p -> [ p; p + 1 ]) moved
  |> List.sort_uniq compare
  |> List.filter_map (fun k ->
         let ended = pair_at n prev k and started = pair_at n order k in
         if ended = started then None else Some (ended, started))

(* The sweep lends each cell's order only for its callback: keep every
   cell's as a persistent vector sharing all but the moved slots with its
   neighbour's, and read each boundary as adjacency changes. *)
let sweep_cells crossings table on_cell =
  let n = Table.size table in
  let prev = ref None in
  Sorting.sweep_1d crossings table (fun c ~lob ~hib order ~moved ->
      let cell_order, changes =
        match !prev with
        | None -> (Pvec.of_array order, [])
        | Some before ->
          let after = List.fold_left (fun v p -> Pvec.set v p order.(p)) before moved in
          (after, adjacency_changes n before after moved)
      in
      prev := Some cell_order;
      on_cell c ~lob ~hib cell_order ~changes)

(* ------------------------------ build ------------------------------ *)

let token_digest rdig n tok =
  if tok = n then Record.min_sentinel_digest
  else if tok = n + 1 then Record.max_sentinel_digest
  else rdig.(tok)

let span_digest du dv (lo, hi) =
  let w = W.writer () in
  W.bytes w du;
  W.bytes w dv;
  Q.encode w lo;
  Q.encode w hi;
  Sha256.digest_list [ chain_tag; W.contents w ]

let build_with ~pool ~sign table =
  let crossings = crossings ~pool ~caller:"Mesh.build" table in
  let n = Table.size table in
  let rdig = Aqv_par.Pool.parallel_map pool Record.digest (Table.records table) in
  let cells = ref [] in
  let open_runs : (int * int, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let runs : (int * int, run list) Hashtbl.t = Hashtbl.create (2 * n) in
  (* The sweep is sequential (each cell's order derives from its left
     neighbour), but the Theta(n^2) signatures are each a pure function
     of (pair, span): record the runs during the sweep, sign them in
     parallel afterwards, then attach in finalize order. *)
  let pending = ref [] in
  let finalize pair s e = pending := (pair, s, e) :: !pending in
  let on_cell c ~lob ~hib order ~changes =
    if c = 0 then
      (* open a run for every initial adjacency *)
      for k = 0 to n do
        Hashtbl.replace open_runs (pair_at n order k) 0
      done
    else begin
      (* runs that end here finish at c-1 *)
      List.iter
        (fun (pair, _) ->
          finalize pair (Hashtbl.find open_runs pair) (c - 1);
          Hashtbl.remove open_runs pair)
        changes;
      List.iter (fun (_, pair) -> Hashtbl.replace open_runs pair c) changes
    end;
    cells := { lob; hib; order } :: !cells
  in
  let ncells = sweep_cells crossings table on_cell in
  (* close all remaining runs at the last cell *)
  Hashtbl.iter (fun pair s -> finalize pair s (ncells - 1)) open_runs;
  let cells = Array.of_list (List.rev !cells) in
  let pending = Array.of_list (List.rev !pending) in
  let signatures =
    Aqv_par.Pool.parallel_map pool
      (fun ((u, v), s, e) ->
        let d =
          span_digest (token_digest rdig n u) (token_digest rdig n v) (cells.(s).lob, cells.(e).hib)
        in
        (d, sign d))
      pending
  in
  Array.iteri
    (fun i (pair, s, e) ->
      let digest, signature = signatures.(i) in
      Hashtbl.replace runs pair
        ({ s; e; digest; signature }
        :: Option.value ~default:[] (Hashtbl.find_opt runs pair)))
    pending;
  { table; cells; runs; n; signatures = Array.length pending }

let build ?pool table keypair =
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  build_with ~pool ~sign:keypair.Signer.sign table

(* Chain-local repair: re-run the sweep over the updated table, but sign
   only the runs whose signing digest is new. Run digests commit the two
   record digests and the x-span — nothing position- or epoch-dependent
   — so every adjacency the update left untouched (same neighbours, same
   span) reuses its old signature verbatim; deterministic signing makes
   the result bit-identical to a fresh build (same {!fingerprint}). The
   digest cache is read-only under the pool — tasks stay pure. *)
let apply keypair changes t =
  let pool = Aqv_par.Pool.default () in
  let table = Update.apply_table changes t.table in
  let cache = Hashtbl.create (2 * t.signatures) in
  Hashtbl.iter
    (fun _ rs -> List.iter (fun r -> Hashtbl.replace cache r.digest r.signature) rs)
    t.runs;
  let sign d =
    match Hashtbl.find_opt cache d with Some s -> s | None -> keypair.Signer.sign d
  in
  build_with ~pool ~sign table

(* Canonical digest of the whole mesh — cells in order, runs sorted by
   (pair, start) — so two builds can be compared for bit-identity
   without exposing the internals (hashtable iteration order is an
   implementation detail the digest must not depend on). *)
let fingerprint t =
  let w = W.writer () in
  W.varint w t.n;
  W.varint w t.signatures;
  Array.iter
    (fun cell ->
      Q.encode w cell.lob;
      Q.encode w cell.hib;
      Array.iter (fun p -> W.varint w p) (Pvec.to_array cell.order))
    t.cells;
  let all_runs =
    Hashtbl.fold
      (fun (u, v) rs acc -> List.fold_left (fun acc r -> (u, v, r) :: acc) acc rs)
      t.runs []
  in
  let all_runs =
    List.sort
      (fun (u1, v1, r1) (u2, v2, r2) -> compare (u1, v1, r1.s, r1.e) (u2, v2, r2.s, r2.e))
      all_runs
  in
  List.iter
    (fun (u, v, r) ->
      W.varint w u;
      W.varint w v;
      W.varint w r.s;
      W.varint w r.e;
      W.bytes w r.signature)
    all_runs;
  Sha256.digest (W.contents w)

let count_signatures table =
  let crossings = crossings ~caller:"Mesh.count_signatures" table in
  let n = Table.size table in
  (* the initial adjacencies and each started one end in one signature *)
  let nsigs = ref (n + 1) in
  let ncells =
    sweep_cells crossings table (fun _ ~lob:_ ~hib:_ _ ~changes ->
        nsigs := !nsigs + List.length changes)
  in
  (!nsigs, ncells)

(* ------------------------- query processing ------------------------ *)

let outside_domain x0 =
  invalid_arg (Printf.sprintf "Mesh.locate_cell: point %s outside domain" (Q.to_string x0))

(* O(log S) point location: binary search for the greatest cell whose
   left bound does not exceed [x0]. Cells are half-open [lob, hib), the
   last cell right-closed, and partition the domain with strictly
   increasing [lob], so this is exactly the cell a left-to-right scan
   stops at (the linear-scan reference in test/ref): for any c < c* the
   scan's [x0 < hib] test fails (hib_c = lob_{c+1} <= x0), and at c* it
   succeeds (or c* is the right-closed last cell). Facet ties need no
   slack here — the half-open convention makes every exact comparison
   unambiguous, the same reason [Region.strictly_feasible] pads
   interior witnesses {e away} from facets elsewhere. Every probe is
   one exact-rational comparison, ticked in both the mesh-cell and the
   location sign-test counters. *)
let locate_cell t x0 =
  let ncells = Array.length t.cells in
  if ncells = 0 then outside_domain x0;
  Aqv_util.Metrics.add_mesh_cells 1;
  Aqv_util.Metrics.add_locate_sign_tests 1;
  if Q.compare x0 t.cells.(0).lob < 0 then outside_domain x0;
  (* invariant: cells.(lo).lob <= x0, and the answer lies in [lo, hi] *)
  let rec go lo hi =
    if lo = hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      Aqv_util.Metrics.add_mesh_cells 1;
      Aqv_util.Metrics.add_locate_sign_tests 1;
      if Q.compare t.cells.(mid).lob x0 <= 0 then go mid hi else go lo (mid - 1)
    end
  in
  go 0 (ncells - 1)

let cell_bounds t = Array.map (fun cell -> (cell.lob, cell.hib)) t.cells

let find_run t pair c =
  match Hashtbl.find_opt t.runs pair with
  | None -> invalid_arg "Mesh: missing run"
  | Some rs ->
    (match List.find_opt (fun r -> r.s <= c && c <= r.e) rs with
    | Some r -> r
    | None -> invalid_arg "Mesh: no covering run")

let answer t query =
  let x = Query.x query in
  if Array.length x <> 1 then invalid_arg "Mesh.answer: 1-D input expected";
  let c = locate_cell t x.(0) in
  let cell = t.cells.(c) in
  let fns = Table.functions t.table in
  let n = t.n in
  let score i =
    Aqv_util.Metrics.add_mesh_cells 1;
    Linfun.eval_unreduced fns.(Pvec.get cell.order i) x
  in
  let wlo, whi =
    match Query.window ~n ~score query with
    | Some (a, b) -> (a + 1, b + 1)
    | None ->
      let l = match query with Query.Range { l; _ } -> l | _ -> assert false in
      let ins = Query.insertion_point ~n ~score (Q.to_unreduced l) in
      (ins + 1, ins)
  in
  let tok_at pos = if pos = 0 then t.n else if pos = n + 1 then t.n + 1 else Pvec.get cell.order (pos - 1) in
  let record_at pos =
    Aqv_util.Metrics.add_mesh_cells 1;
    Table.record t.table (Pvec.get cell.order (pos - 1))
  in
  let left = if wlo - 1 = 0 then Vo.Min_sentinel else Vo.Boundary_record (record_at (wlo - 1)) in
  let right =
    if whi + 1 = n + 1 then Vo.Max_sentinel else Vo.Boundary_record (record_at (whi + 1))
  in
  let result = List.init (whi - wlo + 1) (fun k -> record_at (wlo + k)) in
  let links =
    List.init (whi + 1 - (wlo - 1)) (fun k ->
        let p = wlo - 1 + k in
        Aqv_util.Metrics.add_mesh_cells 1;
        let run = find_run t (tok_at p, tok_at (p + 1)) c in
        let lo = t.cells.(run.s).lob and hi = t.cells.(run.e).hib in
        { span = (lo, hi); signature = run.signature })
  in
  { result; vo = { cell_bounds = (cell.lob, cell.hib); left; right; links } }

let vo_size_bytes vo =
  let w = W.writer () in
  let enc_boundary = function
    | Vo.Min_sentinel -> W.u8 w 0
    | Vo.Max_sentinel -> W.u8 w 1
    | Vo.Boundary_record r ->
      W.u8 w 2;
      Record.encode w r
  in
  Q.encode w (fst vo.cell_bounds);
  Q.encode w (snd vo.cell_bounds);
  enc_boundary vo.left;
  enc_boundary vo.right;
  W.list w
    (fun l ->
      Q.encode w (fst l.span);
      Q.encode w (snd l.span);
      W.bytes w l.signature)
    vo.links;
  let sz = W.size w in
  Aqv_util.Metrics.add_bytes_out sz;
  sz

(* --------------------------- verification -------------------------- *)

let verify ~template ~domain ~verify_signature query (resp : response) =
  let open Semantics in
  match
    let x = Query.x query in
    guard (Array.length x = 1 && Domain.dim domain = 1) Outside_domain;
    guard (Domain.contains domain x) Outside_domain;
    let x0 = x.(0) in
    let dhi = Domain.hi domain 0 in
    let vo = resp.vo in
    (* token digests across the chain *)
    let boundary_digest = function
      | Vo.Min_sentinel -> Record.min_sentinel_digest
      | Vo.Max_sentinel -> Record.max_sentinel_digest
      | Vo.Boundary_record r -> Record.digest r
    in
    let digests =
      (boundary_digest vo.left :: List.map Record.digest resp.result)
      @ [ boundary_digest vo.right ]
    in
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | _ -> []
    in
    let chain = pairs digests in
    guard (List.length chain = List.length vo.links) Malformed;
    List.iter2
      (fun (du, dv) l ->
        let lo, hi = l.span in
        (* the span must cover the query input (half-open; the domain's
           right end belongs to the last cell) *)
        let covers =
          Q.compare lo x0 <= 0
          && (Q.compare x0 hi < 0 || (Q.equal hi dhi && Q.compare x0 hi <= 0))
        in
        guard covers Wrong_subdomain;
        let d = span_digest du dv l.span in
        guard (verify_signature d l.signature) Bad_signature)
      chain vo.links;
    (* window semantics; the mesh VO does not commit to n, so a short
       top-k/KNN answer must exhibit both sentinels *)
    let count = List.length resp.result in
    let n_for_semantics =
      match (vo.left, vo.right) with
      | Vo.Min_sentinel, Vo.Max_sentinel -> count
      | _ -> max_int
    in
    Semantics.check_window ~template ~x ~n:n_for_semantics ~query ~left:vo.left
      ~right:vo.right ~result:resp.result
  with
  | () -> Ok ()
  | exception Reject r -> Error r
