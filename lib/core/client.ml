module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Halfspace = Aqv_num.Halfspace
module Domain = Aqv_num.Domain
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Template = Aqv_db.Template

(* A verifier's memo of the two pure hash functions it calls most.
   Every entry maps a value to its digest, under a key that fixes the
   hashed input exactly:
   - records by id, and an entry answers only a record [Record.equal] to
     the one it was computed from — equal records encode, hence hash,
     identically;
   - FMH interior nodes by the bytes [l ^ r], the whole of what
     [Mht.node_hash] hashes after its constant tag.
   So a hit returns exactly the digest a fresh computation would, and no
   accept/reject decision can depend on what is cached. A table is
   flushed when full; one mutex because client threads share a ctx. *)
type memo = {
  mu : Mutex.t;
  records : (int, Record.t * string) Hashtbl.t;
  nodes : (string, string) Hashtbl.t;
  mutable record_hits : int;
  mutable record_misses : int;
  mutable node_hits : int;
  mutable node_misses : int;
  used : bool Atomic.t;  (** a verification has run with this memo *)
}

(* entries per table *)
let memo_capacity = 1 lsl 16

(* What one verification computed. It reaches the memo only if the
   verification accepts, so the memo holds authenticated data alone: a
   forged reply, rejected, neither grows nor evicts it. *)
type fresh = {
  mutable fresh_records : (int * (Record.t * string)) list;
  mutable fresh_nodes : (string * string) list;
}

type ctx = {
  template : Template.t;
  domain : Domain.t;
  verify_signature : string -> string -> bool;
  min_epoch : int;
  memo : memo;
  fresh : fresh option;
      (** [None] outside {!with_memo} and in a ctx's first verification:
          no memo use *)
}

let make_ctx ~template ~domain ~verify_signature =
  let memo =
    {
      mu = Mutex.create ();
      records = Hashtbl.create 64;
      nodes = Hashtbl.create 64;
      record_hits = 0;
      record_misses = 0;
      node_hits = 0;
      node_misses = 0;
      used = Atomic.make false;
    }
  in
  { template; domain; verify_signature; min_epoch = 0; memo; fresh = None }

let publish memo fresh =
  let store tbl entries =
    List.iter
      (fun (key, v) ->
        if Hashtbl.length tbl >= memo_capacity && not (Hashtbl.mem tbl key) then
          Hashtbl.reset tbl;
        Hashtbl.replace tbl key v)
      (List.rev entries)
  in
  Mutex.protect memo.mu (fun () ->
      store memo.records fresh.fresh_records;
      store memo.nodes fresh.fresh_nodes)

(* A ctx's first verification runs memo-free, exactly as a one-shot
   client's does (Fig. 7); later ones look up what accepted ones before
   them computed. *)
let with_memo ctx f =
  if (not (Atomic.get ctx.memo.used)) && not (Atomic.exchange ctx.memo.used true) then
    f ctx
  else
    let fresh = { fresh_records = []; fresh_nodes = [] } in
    let result = f { ctx with fresh = Some fresh } in
    if Result.is_ok result then publish ctx.memo fresh;
    result

(* Lookups lock; hashing runs outside the lock, so threads sharing a
   ctx hash in parallel. *)
let record_digest ctx r =
  match ctx.fresh with
  | None -> Record.digest r
  | Some fresh -> (
    let m = ctx.memo and id = Record.id r in
    let cached =
      Mutex.protect m.mu (fun () ->
          match Hashtbl.find_opt m.records id with
          | Some (r', d) when Record.equal r r' ->
            m.record_hits <- m.record_hits + 1;
            Some d
          | _ ->
            m.record_misses <- m.record_misses + 1;
            None)
    in
    match cached with
    | Some d -> d
    | None ->
      let d = Record.digest r in
      fresh.fresh_records <- (id, (r, d)) :: fresh.fresh_records;
      d)

let node_hash ctx l r =
  match ctx.fresh with
  | None -> Mht.node_hash l r
  | Some fresh -> (
    let m = ctx.memo and key = l ^ r in
    let cached =
      Mutex.protect m.mu (fun () ->
          match Hashtbl.find_opt m.nodes key with
          | Some h ->
            m.node_hits <- m.node_hits + 1;
            Some h
          | None ->
            m.node_misses <- m.node_misses + 1;
            None)
    in
    match cached with
    | Some h -> h
    | None ->
      let h = Mht.node_hash l r in
      fresh.fresh_nodes <- (key, h) :: fresh.fresh_nodes;
      h)

type memo_counters = {
  record_hits : int;
  record_misses : int;
  node_hits : int;
  node_misses : int;
}

let memo_counters ctx =
  let m = ctx.memo in
  Mutex.protect m.mu (fun () ->
      {
        record_hits = m.record_hits;
        record_misses = m.record_misses;
        node_hits = m.node_hits;
        node_misses = m.node_misses;
      })

let min_epoch ctx = ctx.min_epoch
let template ctx = ctx.template
let domain ctx = ctx.domain

let with_min_epoch ctx min_epoch = { ctx with min_epoch }

type rejection = Semantics.rejection =
  | Malformed
  | Bad_signature
  | Wrong_subdomain
  | Order_violation
  | Boundary_violation
  | Count_mismatch
  | Outside_domain
  | Stale_epoch

let rejection_to_string = Semantics.rejection_to_string

open Semantics

let boundary_digest ctx = function
  | Vo.Min_sentinel -> Record.min_sentinel_digest
  | Vo.Max_sentinel -> Record.max_sentinel_digest
  | Vo.Boundary_record r -> record_digest ctx r

(* Verify the subdomain part against a reconstructed FMH root: route or
   constraint checks at [x], then the owner's signature over the scheme's
   digest. Shared with the batch and count verifiers. *)
let check_subdomain_proof ctx ~x ~fmh_root ~n_leaves ~epoch subdomain ~signature =
  match subdomain with
  | Vo.One_sig_path steps ->
    let root_hash =
      List.fold_left
        (fun h (s : Vo.path_step) ->
          let fp =
            match Template.apply ctx.template s.Vo.rp with
            | f -> f
            | exception Invalid_argument _ -> raise (Reject Malformed)
          in
          let fq =
            match Template.apply ctx.template s.Vo.rq with
            | f -> f
            | exception Invalid_argument _ -> raise (Reject Malformed)
          in
          let diff = Linfun.sub fp fq in
          let expected =
            if Q.sign (Linfun.eval diff x) >= 0 then Halfspace.Above else Halfspace.Below
          in
          guard (expected = s.Vo.taken) Wrong_subdomain;
          let rp_digest = record_digest ctx s.Vo.rp and rq_digest = record_digest ctx s.Vo.rq in
          match s.Vo.taken with
          | Halfspace.Above ->
            Ifmh.inode_digest ~rp_digest ~rq_digest ~above:h ~below:s.Vo.sibling
          | Halfspace.Below ->
            Ifmh.inode_digest ~rp_digest ~rq_digest ~above:s.Vo.sibling ~below:h)
        fmh_root steps
    in
    guard
      (ctx.verify_signature
         (Ifmh.root_digest_for_signing ~root_hash ~n_leaves ~epoch)
         signature)
      Bad_signature
  | Vo.Multi_sig_constraints cons ->
    List.iter
      (fun (rp, rq, side) ->
        let diff =
          match (Template.apply ctx.template rp, Template.apply ctx.template rq) with
          | fp, fq -> Linfun.sub fp fq
          | exception Invalid_argument _ -> raise (Reject Malformed)
        in
        let holds =
          match side with
          | Halfspace.Above -> Q.sign (Linfun.eval diff x) >= 0
          | Halfspace.Below -> Q.sign (Linfun.eval diff x) < 0
        in
        guard holds Wrong_subdomain)
      cons;
    let cons_digests =
      List.map
        (fun (rp, rq, side) -> (record_digest ctx rp, record_digest ctx rq, side))
        cons
    in
    let digest =
      Ifmh.leaf_digest_for_signing ~domain:ctx.domain ~cons_digests ~fmh_root ~n_leaves
        ~epoch
    in
    guard (ctx.verify_signature digest signature) Bad_signature

let window_root ctx ~n_leaves ~window_lo:wlo ~left ~result ~right ~fmh_proof =
  let n = n_leaves - 2 in
  let whi = wlo + List.length result - 1 in
  guard (wlo >= 1 && whi <= n && wlo <= whi + 1) Malformed;
  (* sentinel boundaries are only legal at the ends of the list *)
  (match left with
  | Vo.Min_sentinel -> guard (wlo - 1 = 0) Malformed
  | Vo.Max_sentinel -> raise (Reject Malformed)
  | Vo.Boundary_record _ -> guard (wlo - 1 >= 1) Malformed);
  (match right with
  | Vo.Max_sentinel -> guard (whi + 1 = n + 1) Malformed
  | Vo.Min_sentinel -> raise (Reject Malformed)
  | Vo.Boundary_record _ -> guard (whi + 1 <= n) Malformed);
  let leaves =
    (boundary_digest ctx left :: List.map (record_digest ctx) result)
    @ [ boundary_digest ctx right ]
  in
  match
    Mht.root_of_range ~node_hash:(node_hash ctx) ~n:n_leaves ~lo:(wlo - 1)
      ~leaves ~proof:fmh_proof
  with
  | Some h -> h
  | None -> raise (Reject Malformed)

(* Everything up to and including the signature check: returns the
   number of records committed in the list. *)
let authenticate_exn ctx ~x (resp : Server.response) =
  guard (Array.length x = Domain.dim ctx.domain) Outside_domain;
  guard (Domain.contains ctx.domain x) Outside_domain;
  let vo = resp.Server.vo in
  let n = vo.Vo.n_leaves - 2 in
  guard (n >= 1) Malformed;
  guard (vo.Vo.epoch >= ctx.min_epoch) Stale_epoch;
  (* --- step 1a: reconstruct the FMH root from window + proof --- *)
  let fmh_root =
    window_root ctx ~n_leaves:vo.Vo.n_leaves ~window_lo:vo.Vo.window_lo ~left:vo.Vo.left
      ~result:resp.Server.result ~right:vo.Vo.right ~fmh_proof:vo.Vo.fmh_proof
  in
  (* --- step 1b: subdomain verification + signature --- *)
  check_subdomain_proof ctx ~x ~fmh_root ~n_leaves:vo.Vo.n_leaves ~epoch:vo.Vo.epoch
    vo.Vo.subdomain ~signature:vo.Vo.signature;
  n

let verify_exn ctx query (resp : Server.response) =
  let x = Query.x query in
  let n = authenticate_exn ctx ~x resp in
  (* --- step 2: re-execute the query on the authenticated window --- *)
  Semantics.check_window ~template:ctx.template ~x ~n ~query ~left:resp.Server.vo.Vo.left
    ~right:resp.Server.vo.Vo.right ~result:resp.Server.result

let verify ctx query resp =
  with_memo ctx (fun ctx ->
      match verify_exn ctx query resp with
      | () -> Ok ()
      | exception Reject r -> Error r)

let accepts ctx query resp = Result.is_ok (verify ctx query resp)

let verify_rank ctx ~x ~record_id resp =
  with_memo ctx (fun ctx ->
      match
        ignore (authenticate_exn ctx ~x resp);
        match resp.Server.result with
        | [ r ] ->
          guard (Record.id r = record_id) Boundary_violation;
          resp.Server.vo.Vo.window_lo - 1
        | _ -> raise (Reject Count_mismatch)
      with
      | rank -> Ok rank
      | exception Reject r -> Error r)
