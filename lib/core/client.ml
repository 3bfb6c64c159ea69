module Q = Aqv_num.Rational
module Halfspace = Aqv_num.Halfspace
module Domain = Aqv_num.Domain
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Template = Aqv_db.Template

(* A verifier's memo of the two pure hash functions it calls most, and
   of the owner's signature check: one fixed array of slots per
   function, each slot an immutable entry that carries the whole input
   its result was computed from.
   - A record digest sits at [id land slot_mask] and answers only a
     record [Record.equal] to its own: equal records encode, hence hash,
     identically.
   - An FMH interior node hash sits at a slot read off bytes of its two
     children, or at the slot beside it (the two differ in the lowest
     bit), and answers only the same [l] and [r], the whole of what
     [Mht.node_hash] hashes after its constant tag. Two ways keep two
     nodes of one reply that share a slot from evicting each other on
     every publish.
   - A signature sits, two-way too, at a slot read off the root it
     signs, and answers only the same signature over the same signing
     inputs: scheme, root, [n_leaves], epoch and, under multi-signature,
     each constraint's record digests and side. With the domain, which
     every ctx of a memo shares, they fix the signing digest, so a hit
     answers exactly what a fresh [verify_signature] call would be asked,
     without the hash; only pairs that call accepted are ever stored.
   So a hit returns exactly the result a fresh computation would, and no
   accept/reject decision can depend on what is cached; a colliding
   record replaces the old one, and a node or a signature fills an
   empty way of its pair or else moves the entry at its slot to the
   other way. An empty slot is a constant constructor, which no lookup
   matches. The digests an entry holds mostly come back from other
   entries, so strings are compared by address first. Client
   threads and domains share a ctx without a lock: a slot changes by
   one store of a whole entry, so a racing reader sees an old entry or
   a new one, each checked in full (mid-move, an entry may show in both
   ways or in neither: a duplicate or a miss, never a wrong hash). *)
type record_entry = No_record | Rec of { id : int; record : Record.t; digest : string }
type node_entry = No_node | Node of { l : string; r : string; hash : string }

(* what a signature covers besides its root, [n_leaves] and epoch *)
type signed = One_sig | Multi_sig of (string * string * Halfspace.side) list

type signature_entry =
  | No_signature
  | Sig of { signed : signed; root : string; n_leaves : int; epoch : int; signature : string }

type tables = {
  records : record_entry array;
  nodes : node_entry array;
  signatures : signature_entry array;
}

(* A ctx's first verification runs memo-free, exactly as a one-shot
   client's does (Fig. 7), so the tables appear with its second: a
   client that verifies once never allocates them. *)
type phase = Unused | Used_once | Warm of tables

(* lookup counts, indexed in the order of [memo_counters]' fields *)
let record_hit, record_miss, node_hit, node_miss, signature_hit, signature_miss = (0, 1, 2, 3, 4, 5)

type memo = { phase : phase Atomic.t; counts : int Atomic.t array }

(* slots per record and node array *)
let slots = 1 lsl 16
let slot_mask = slots - 1

(* A client meets one signature per subdomain it queries (one in all
   under one-signature): fewer than records or nodes, but thousands. *)
let signature_slots = 1 lsl 14

(* A node's slot mixes two bytes of each child. SHA-256 output is
   uniform, so any bytes do; a child shorter than a digest (a forged
   proof entry) skips the memo rather than read past its end. *)
let digest_bytes = 32
let node_slot l r = String.get_uint16_le l 0 lxor String.get_uint16_le r 2

(* a signed IMH or FMH root is a SHA-256 output computed here *)
let signature_slot root = String.get_uint16_le root 0 land (signature_slots - 1)

(* What one verification computed, and its lookup counts (added to the
   ctx's either way). It reaches the memo only if the verification
   accepts, so the memo holds authenticated data alone. *)
type fresh = {
  tables : tables;
  mutable fresh_records : record_entry list;
  mutable fresh_nodes : node_entry list;
  mutable fresh_signatures : signature_entry list;
  counts : int array;
}

let tick fresh i = fresh.counts.(i) <- fresh.counts.(i) + 1

type ctx = {
  template : Template.t;
  domain : Domain.t;
  leaf_prefix : Ifmh.leaf_signing_prefix;  (** the domain's part of a leaf signing digest *)
  verify_signature : string -> string -> bool;
  min_epoch : int;
  memo : memo;
  fresh : fresh option;
      (** [None] outside {!with_memo} and in a ctx's first verification:
          no memo use *)
}

let make_ctx ~template ~domain ~verify_signature =
  let memo = { phase = Atomic.make Unused; counts = Array.init 6 (fun _ -> Atomic.make 0) } in
  let leaf_prefix = Ifmh.leaf_signing_prefix domain in
  { template; domain; leaf_prefix; verify_signature; min_epoch = 0; memo; fresh = None }

(* [None] for a ctx's first verification, the shared tables after it *)
let rec tables memo =
  match Atomic.get memo.phase with
  | Warm tables -> Some tables
  | Unused -> if Atomic.compare_and_set memo.phase Unused Used_once then None else tables memo
  | Used_once ->
    let t =
      {
        records = Array.make slots No_record;
        nodes = Array.make slots No_node;
        signatures = Array.make signature_slots No_signature;
      }
    in
    ignore (Atomic.compare_and_set memo.phase Used_once (Warm t));
    tables memo

(* An entry goes to its slot [i] if that is [empty], else to [i lxor 1]
   if that is; with both full, the entry at [i] moves over and the new
   one takes [i], so the last two published to a pair both stay. *)
let publish_two_way slots empty i entry =
  let j = i lxor 1 in
  let old = slots.(i) in
  if old == empty then slots.(i) <- entry
  else if slots.(j) == empty then slots.(j) <- entry
  else begin
    slots.(j) <- old;
    slots.(i) <- entry
  end

let publish fresh =
  let { records; nodes; signatures } = fresh.tables in
  List.iter
    (function Rec e as entry -> records.(e.id land slot_mask) <- entry | No_record -> ())
    fresh.fresh_records;
  List.iter
    (function
      | Node e as entry -> publish_two_way nodes No_node (node_slot e.l e.r) entry
      | No_node -> ())
    fresh.fresh_nodes;
  List.iter
    (function
      | Sig e as entry -> publish_two_way signatures No_signature (signature_slot e.root) entry
      | No_signature -> ())
    fresh.fresh_signatures

let with_memo ctx f =
  match tables ctx.memo with
  | None -> f ctx
  | Some tables ->
    let counts = Array.make 6 0 in
    let fresh = { tables; fresh_records = []; fresh_nodes = []; fresh_signatures = []; counts } in
    let add_counts () =
      Array.iteri (fun i n -> if n > 0 then ignore (Atomic.fetch_and_add ctx.memo.counts.(i) n)) counts
    in
    let result = Fun.protect ~finally:add_counts (fun () -> f { ctx with fresh = Some fresh }) in
    if Result.is_ok result then publish fresh;
    result

let same a b = a == b || String.equal a b

let record_digest ctx r =
  match ctx.fresh with
  | None -> Record.digest r
  | Some fresh -> (
    let id = Record.id r in
    match fresh.tables.records.(id land slot_mask) with
    | Rec e when e.id = id && Record.equal e.record r ->
      tick fresh record_hit;
      e.digest
    | _ ->
      tick fresh record_miss;
      let digest = Record.digest r in
      fresh.fresh_records <- Rec { id; record = r; digest } :: fresh.fresh_records;
      digest)

(* the hash at slot [i] if its entry is the node [l], [r], else [""]
   (a hash is never empty) *)
let node_at nodes i l r =
  match nodes.(i) with
  | Node e when same e.l l && same e.r r -> e.hash
  | _ -> ""

let find_node nodes l r =
  let i = node_slot l r in
  match node_at nodes i l r with "" -> node_at nodes (i lxor 1) l r | hash -> hash

let node_hash ctx l r =
  match ctx.fresh with
  | None -> Mht.node_hash l r
  | Some fresh -> (
    let short = String.length l < digest_bytes || String.length r < digest_bytes in
    match if short then "" else find_node fresh.tables.nodes l r with
    | "" ->
      tick fresh node_miss;
      let hash = Mht.node_hash l r in
      if not short then fresh.fresh_nodes <- Node { l; r; hash } :: fresh.fresh_nodes;
      hash
    | hash ->
      tick fresh node_hit;
      hash)

let same_cons = List.equal (fun (ap, aq, aside) (bp, bq, bside) ->
    aside = bside && same ap bp && same aq bq)

(* whether [entry] holds [key]'s signature over the same inputs *)
let holds entry key =
  match (entry, key) with
  | Sig e, Sig k ->
    e.n_leaves = k.n_leaves && e.epoch = k.epoch && same e.root k.root
    && String.equal e.signature k.signature
    && (match (e.signed, k.signed) with
       | One_sig, One_sig -> true
       | Multi_sig a, Multi_sig b -> same_cons a b
       | _ -> false)
  | _ -> false

(* [verify_signature] over the signing digest of these inputs, or
   [true] if an earlier accepted verification saw it accept them *)
let signature_ok ctx ~signed ~root ~n_leaves ~epoch signature =
  let check () =
    ctx.verify_signature
      (match signed with
      | One_sig -> Ifmh.root_digest_for_signing ~root_hash:root ~n_leaves ~epoch
      | Multi_sig cons_digests ->
        Ifmh.leaf_digest_for_signing ~prefix:ctx.leaf_prefix ~cons_digests ~fmh_root:root
          ~n_leaves ~epoch)
      signature
  in
  match ctx.fresh with
  | None -> check ()
  | Some fresh ->
    let key = Sig { signed; root; n_leaves; epoch; signature } in
    let sigs = fresh.tables.signatures and i = signature_slot root in
    if holds sigs.(i) key || holds sigs.(i lxor 1) key then (tick fresh signature_hit; true)
    else begin
      tick fresh signature_miss;
      let ok = check () in
      if ok then fresh.fresh_signatures <- key :: fresh.fresh_signatures;
      ok
    end

type memo_counters = {
  record_hits : int;
  record_misses : int;
  node_hits : int;
  node_misses : int;
  signature_hits : int;
  signature_misses : int;
}

let memo_counters ctx =
  let count i = Atomic.get ctx.memo.counts.(i) in
  {
    record_hits = count record_hit;
    record_misses = count record_miss;
    node_hits = count node_hit;
    node_misses = count node_miss;
    signature_hits = count signature_hit;
    signature_misses = count signature_miss;
  }

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

(* The side of the intersection of [rp]'s and [rq]'s functions that [x]
   lies on; a tie counts as above. *)
let side_at ctx ~x rp rq =
  let sp = score ctx.template rp x in
  if Q.compare_unreduced sp (score ctx.template rq x) >= 0 then Halfspace.Above
  else Halfspace.Below

(* Verify the subdomain part against a reconstructed FMH root: route or
   constraint checks at [x], then the owner's signature over the scheme's
   digest. Shared with the count verifier. *)
let check_subdomain_proof ctx ~x ~fmh_root ~n_leaves ~epoch subdomain ~signature =
  match subdomain with
  | Vo.One_sig_path steps ->
    let root_hash =
      List.fold_left
        (fun h (s : Vo.path_step) ->
          guard (side_at ctx ~x s.Vo.rp s.Vo.rq = s.Vo.taken) Wrong_subdomain;
          let rp_digest = record_digest ctx s.Vo.rp and rq_digest = record_digest ctx s.Vo.rq in
          match s.Vo.taken with
          | Halfspace.Above ->
            Ifmh.inode_digest ~rp_digest ~rq_digest ~above:h ~below:s.Vo.sibling
          | Halfspace.Below ->
            Ifmh.inode_digest ~rp_digest ~rq_digest ~above:s.Vo.sibling ~below:h)
        fmh_root steps
    in
    guard
      (signature_ok ctx ~signed:One_sig ~root:root_hash ~n_leaves ~epoch signature)
      Bad_signature
  | Vo.Multi_sig_constraints cons ->
    List.iter (fun (rp, rq, side) -> guard (side_at ctx ~x rp rq = side) Wrong_subdomain) cons;
    let cons_digests =
      List.map
        (fun (rp, rq, side) -> (record_digest ctx rp, record_digest ctx rq, side))
        cons
    in
    guard
      (signature_ok ctx ~signed:(Multi_sig cons_digests) ~root:fmh_root ~n_leaves ~epoch
         signature)
      Bad_signature

(* the window's leaf digests, then [right]'s: one list, built in order *)
let[@tail_mod_cons] rec leaf_digests ctx right = function
  | [] -> [ boundary_digest ctx right ]
  | r :: rest -> record_digest ctx r :: leaf_digests ctx right rest

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
  let leaves = boundary_digest ctx left :: leaf_digests ctx right result in
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
