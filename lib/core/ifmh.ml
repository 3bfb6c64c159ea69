module Sha256 = Aqv_crypto.Sha256
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Halfspace = Aqv_num.Halfspace
module Mht = Aqv_merkle.Mht

type scheme = One_signature | Multi_signature

let scheme_name = function
  | One_signature -> "one-signature"
  | Multi_signature -> "multi-signature"

type t = {
  scheme : scheme;
  table : Table.t;
  itree : Itree.t;
  sorting : Sorting.t;
  signature_size : int;
  seed : int64;
  epoch : int;
  rdig : string array;  (** per-record digests, in table order *)
  root_signature : string option;
  leaf_signatures : string array;
  leaf_digests : string array option Atomic.t;
      (** the digests [leaf_signatures] cover, kept where signing
          computed them (owner [build]/[apply]). [None] under
          one-signature and on the server ([load]/[apply_delta]), which
          attaches signatures by leaf id and never needs them, until
          something asks: then one walk fills it. Racing domains each
          compute the same array, so whichever write lands is right. *)
}

let scheme t = t.scheme
let epoch t = t.epoch
let signature_size t = t.signature_size
let table t = t.table
let itree t = t.itree
let sorting t = t.sorting

let root_signature t =
  match t.root_signature with
  | Some s -> s
  | None -> invalid_arg "Ifmh.root_signature: multi-signature index"

let leaf_signature t id =
  if Array.length t.leaf_signatures = 0 then
    invalid_arg "Ifmh.leaf_signature: one-signature index"
  else t.leaf_signatures.(id)

let inode_tag = "\x04"
let root_sign_tag = "\x05"
let leaf_sign_tag = "\x06"

let inode_digest ~rp_digest ~rq_digest ~above ~below =
  Sha256.digest_list [ inode_tag; rp_digest; rq_digest; above; below ]

(* Both signing digests commit to the FMH leaf count: without it, a
   server could misreport the database size whenever the answer window
   does not touch an end of the list (disjoint Merkle subtrees are
   opaque in range reconstruction). *)
let meta_bytes_of n_leaves epoch =
  let w = Aqv_util.Wire.writer () in
  Aqv_util.Wire.varint w n_leaves;
  Aqv_util.Wire.varint w epoch;
  Aqv_util.Wire.contents w

let root_digest_for_signing ~root_hash ~n_leaves ~epoch =
  Sha256.digest_list [ root_sign_tag; root_hash; meta_bytes_of n_leaves epoch ]

(* A leaf signing digest hashes tag | domain | one entry per
   constraint, root first | FMH root | meta. *)
let write_cons_entry w (dp, dq, side) =
  Aqv_util.Wire.bytes w dp;
  Aqv_util.Wire.bytes w dq;
  Aqv_util.Wire.u8 w (Halfspace.side_to_int side)

let leaf_digest_for_signing ~domain ~cons_digests ~fmh_root ~n_leaves ~epoch =
  let w = Aqv_util.Wire.writer () in
  Aqv_num.Domain.encode w domain;
  List.iter (write_cons_entry w) cons_digests;
  Sha256.digest_list
    [ leaf_sign_tag; Aqv_util.Wire.contents w; fmh_root; meta_bytes_of n_leaves epoch ]

(* Every leaf signing digest of a multi-signature index, in one
   sequential I-tree walk. A leaf's constraints are exactly the inodes
   on its root path, so siblings share the hash state up to their
   common ancestor: each inode's two constraint entries are fed once,
   the context copied at the fork. The bytes equal
   [leaf_digest_for_signing] leaf by leaf, and each digest ticks the
   hash counter once with its full message length, as that function
   does. *)
let leaf_signing_digests ~domain ~n_leaves ~epoch itree sorting rdig =
  let out = Array.make (Itree.leaf_count itree) "" in
  let meta = meta_bytes_of n_leaves epoch in
  let rec go (node : Itree.node) ctx len =
    match node.Itree.kind with
    | Itree.Leaf lf ->
      let fmh_root = Sorting.fmh_root sorting lf.Itree.id in
      Sha256.feed ctx fmh_root;
      Sha256.feed ctx meta;
      Aqv_util.Metrics.add_hash
        ~bytes_len:(len + String.length fmh_root + String.length meta);
      out.(lf.Itree.id) <- Sha256.finalize ctx
    | Itree.Inode n ->
      let below = Sha256.copy ctx in
      let entry side =
        let w = Aqv_util.Wire.writer () in
        write_cons_entry w (rdig.(n.Itree.i), rdig.(n.Itree.j), side);
        Aqv_util.Wire.contents w
      in
      let above_entry = entry Halfspace.Above in
      Sha256.feed ctx above_entry;
      go n.Itree.above ctx (len + String.length above_entry);
      let below_entry = entry Halfspace.Below in
      Sha256.feed below below_entry;
      go n.Itree.below below (len + String.length below_entry)
  in
  let ctx = Sha256.init () in
  let w = Aqv_util.Wire.writer () in
  Aqv_num.Domain.encode w domain;
  let prefix = Aqv_util.Wire.contents w in
  Sha256.feed ctx leaf_sign_tag;
  Sha256.feed ctx prefix;
  go (Itree.root itree) ctx (String.length leaf_sign_tag + String.length prefix);
  out

(* Bottom-up hash propagation over the I-tree (paper step 3). The two
   subtrees under the root are disjoint — no node is reachable from
   both — so they propagate in parallel; each computes exactly the
   hashes the sequential walk would, making the node hashes (and the
   root) bit-identical. Deeper splitting is not worth the bookkeeping:
   the I-tree is built by randomized insertion and its top split is
   balanced in expectation. *)
let propagate_hashes ~pool itree sorting rdig =
  let rec go (node : Itree.node) =
    match node.Itree.kind with
    | Itree.Leaf lf ->
      node.Itree.h <- Sorting.fmh_root sorting lf.Itree.id;
      node.Itree.h
    | Itree.Inode n ->
      let above = go n.Itree.above in
      let below = go n.Itree.below in
      let h =
        inode_digest ~rp_digest:rdig.(n.Itree.i) ~rq_digest:rdig.(n.Itree.j) ~above ~below
      in
      node.Itree.h <- h;
      h
  in
  let root = Itree.root itree in
  match root.Itree.kind with
  | Itree.Inode n when Aqv_par.Pool.size pool > 1 ->
    let subs =
      Aqv_par.Pool.parallel_init pool 2 (fun k ->
          go (if k = 0 then n.Itree.above else n.Itree.below))
    in
    let h =
      inode_digest ~rp_digest:rdig.(n.Itree.i) ~rq_digest:rdig.(n.Itree.j)
        ~above:subs.(0) ~below:subs.(1)
    in
    root.Itree.h <- h;
    h
  | _ -> go root

let default_seed = 0x17EEL

(* Build the unsigned structure (I-tree, sorted lists, FMH roots, hash
   propagation) and hand each scheme the digests it must cover. Shared
   by [build] (owner: signs), [load] (server: attaches stored
   signatures) and the incremental rebuilds ([prev] present).

   With [prev], the digests of records whose content is unchanged are
   reused. Everything else is derived from scratch — the seeded
   insertion shuffle ranges over the crossing pair list the crossing
   enumerator just produced (a pure function of the table and domain;
   see [Crossings]), so any splice-based shortcut would diverge from a
   fresh [build] of the same table, and bit-identity with the fresh
   build is the invariant that makes increments (and crash recovery)
   safe to serve. *)
let build_structure ~seed ?prev ~pool table =
  let records = Table.records table in
  let digest_at =
    match prev with
    | None -> fun i -> Record.digest records.(i)
    | Some t ->
      let by_id = Hashtbl.create (Array.length t.rdig) in
      Array.iteri
        (fun i r -> Hashtbl.replace by_id (Record.id r) (r, t.rdig.(i)))
        (Table.records t.table);
      let reused =
        Array.map
          (fun r ->
            match Hashtbl.find_opt by_id (Record.id r) with
            | Some (r', d) when Record.equal r' r -> Some d
            | _ -> None)
          records
      in
      fun i -> match reused.(i) with Some d -> d | None -> Record.digest records.(i)
  in
  (* one crossing enumeration feeds both consumers: the I-tree
     insertion (shuffled crossing list) and the 1-D sweep (crossing
     roots are its boundary events). In every dimension it is an
     inversion sweep per antipodal corner pair of the box, so only
     crossing pairs ever get a record — never Θ(n²) pair records. *)
  let crossings = Crossings.enumerate ~pool (Table.domain table) (Table.functions table) in
  let itree = Itree.build ~seed ~crossings (Table.domain table) (Table.functions table) in
  (* digest once, in parallel, and thread the array into the sorting
     build (which used to re-hash every record) *)
  let rdig = Aqv_par.Pool.parallel_init pool (Array.length records) digest_at in
  let sorting = Sorting.build ~pool ~rdig ~crossings table itree in
  (itree, sorting, rdig)

(* Where an assembled index's signatures come from: the owner signs
   the digests it computes ([build], and [apply] through its reuse
   cache); the keyless server attaches the owner's stored or shipped
   signatures by leaf id ([load], [apply_delta]) and computes no
   signing digest at all. *)
type signatures =
  | Sign of (string -> string)
  | Attach of { root : string option; leaves : string array }

let assemble ~scheme ~seed ~epoch ~signature_size ~pool table itree sorting
    rdig signatures =
  let n_leaves = Table.size table + 2 in
  let index ~root_signature ~leaf_signatures ~leaf_digests =
    {
      scheme;
      table;
      itree;
      sorting;
      signature_size;
      seed;
      epoch;
      rdig;
      root_signature;
      leaf_signatures;
      leaf_digests = Atomic.make leaf_digests;
    }
  in
  match scheme with
  | One_signature ->
    let root_hash = propagate_hashes ~pool itree sorting rdig in
    let root_signature =
      match signatures with
      | Sign sign -> sign (root_digest_for_signing ~root_hash ~n_leaves ~epoch)
      | Attach { root; _ } -> Option.get root
    in
    index ~root_signature:(Some root_signature) ~leaf_signatures:[||] ~leaf_digests:None
  | Multi_signature -> (
    Array.iter
      (fun (node : Itree.node) ->
        match node.Itree.kind with
        | Itree.Leaf lf -> node.Itree.h <- Sorting.fmh_root sorting lf.Itree.id
        | Itree.Inode _ -> assert false)
      (Itree.leaves itree);
    match signatures with
    | Sign sign ->
      let digests =
        leaf_signing_digests ~domain:(Table.domain table) ~n_leaves ~epoch itree sorting
          rdig
      in
      (* one RSA/DSA signature per subdomain: the dominant construction
         cost, and each a pure function of its digest — fan out *)
      index ~root_signature:None
        ~leaf_signatures:(Aqv_par.Pool.parallel_map pool sign digests)
        ~leaf_digests:(Some digests)
    | Attach { leaves; _ } ->
      index ~root_signature:None ~leaf_signatures:leaves ~leaf_digests:None)

let root_signing_digest t =
  match t.scheme with
  | One_signature ->
    root_digest_for_signing ~root_hash:(Itree.root t.itree).Itree.h
      ~n_leaves:(Table.size t.table + 2) ~epoch:t.epoch
  | Multi_signature -> invalid_arg "Ifmh.root_signing_digest: multi-signature index"

(* All leaf signing digests: the owner's, or — on an index whose
   signatures were attached — one walk on first demand. *)
let leaf_signing_digests_of t =
  match Atomic.get t.leaf_digests with
  | Some d -> d
  | None ->
    let d =
      leaf_signing_digests ~domain:(Table.domain t.table)
        ~n_leaves:(Table.size t.table + 2) ~epoch:t.epoch t.itree t.sorting t.rdig
    in
    Atomic.set t.leaf_digests (Some d);
    d

let leaf_signing_digest t id =
  match t.scheme with
  | One_signature -> invalid_arg "Ifmh.leaf_signing_digest: one-signature index"
  | Multi_signature -> (leaf_signing_digests_of t).(id)

let build ?(seed = default_seed) ?(epoch = 0) ?pool ~scheme table keypair =
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  let itree, sorting, rdig = build_structure ~seed ~pool table in
  assemble ~scheme ~seed ~epoch ~signature_size:keypair.Signer.signature_size ~pool
    table itree sorting rdig (Sign keypair.Signer.sign)

(* ---------------------- incremental maintenance --------------------- *)

let apply ?epoch ?pool keypair changes t =
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  let epoch = match epoch with Some e -> e | None -> t.epoch + 1 in
  if epoch < t.epoch then invalid_arg "Ifmh.apply: epoch must not decrease";
  let table = Update.apply_table changes t.table in
  let itree, sorting, rdig = build_structure ~seed:t.seed ~prev:t ~pool table in
  (* Deterministic signing (PKCS#1-style RSA padding, RFC-6979-style DSA
     nonces) makes signature reuse sound: same digest, same bytes. Only
     digests the update did not change hit the cache — epoch and
     n_leaves are committed in every digest, so a replayable signature
     can never be reused across a version bump by construction. *)
  let cache = Hashtbl.create (Array.length t.leaf_signatures + 1) in
  (match t.scheme with
  | One_signature -> Hashtbl.replace cache (root_signing_digest t) (root_signature t)
  | Multi_signature ->
    Array.iteri
      (fun i d -> Hashtbl.replace cache d t.leaf_signatures.(i))
      (leaf_signing_digests_of t));
  let sign d =
    match Hashtbl.find_opt cache d with Some s -> s | None -> keypair.Signer.sign d
  in
  assemble ~scheme:t.scheme ~seed:t.seed ~epoch
    ~signature_size:keypair.Signer.signature_size ~pool table itree sorting rdig
    (Sign sign)

let insert ?epoch ?pool keypair r t = apply ?epoch ?pool keypair [ Update.Insert r ] t
let delete ?epoch ?pool keypair id t = apply ?epoch ?pool keypair [ Update.Delete id ] t
let modify ?epoch ?pool keypair r t = apply ?epoch ?pool keypair [ Update.Modify r ] t

(* ------------------------------ deltas ------------------------------ *)

type delta = {
  changes : Update.change list;
  epoch : int;
  root_signature : string option;
  leaf_signatures : string array;
}

let delta_epoch d = d.epoch
let delta_changes d = d.changes

let delta ~changes (t : t) =
  {
    changes;
    epoch = t.epoch;
    root_signature = t.root_signature;
    leaf_signatures = t.leaf_signatures;
  }

let delta_with_changes changes d = { d with changes }

let encode_delta w d =
  let module W = Aqv_util.Wire in
  W.list w (Update.encode_change w) d.changes;
  W.varint w d.epoch;
  (match d.root_signature with
  | Some s ->
    W.u8 w 1;
    W.bytes w s
  | None -> W.u8 w 0);
  W.list w (W.bytes w) (Array.to_list d.leaf_signatures)

let decode_delta r =
  let module W = Aqv_util.Wire in
  let changes = W.read_list r Update.decode_change in
  let epoch = W.read_varint r in
  let root_signature = match W.read_u8 r with 1 -> Some (W.read_bytes r) | _ -> None in
  let leaf_signatures = Array.of_list (W.read_list r W.read_bytes) in
  { changes; epoch; root_signature; leaf_signatures }

(* Server side of a republish: replay the owner's changes and attach the
   shipped signatures, exactly as [load] attaches stored ones. The
   server cannot check them (it has no key) — verifying clients do. *)
let apply_delta ?pool (d : delta) (t : t) =
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  if d.epoch < t.epoch then failwith "Ifmh.apply_delta: epoch regression";
  if t.scheme = One_signature && d.root_signature = None then
    failwith "Ifmh.apply_delta: missing signature";
  let table =
    match Update.apply_table d.changes t.table with
    | table -> table
    | exception Invalid_argument m -> failwith ("Ifmh.apply_delta: " ^ m)
  in
  let itree, sorting, rdig = build_structure ~seed:t.seed ~prev:t ~pool table in
  if t.scheme = Multi_signature && Array.length d.leaf_signatures <> Itree.leaf_count itree
  then failwith "Ifmh.apply_delta: signature count mismatch";
  assemble ~scheme:t.scheme ~seed:t.seed ~epoch:d.epoch ~signature_size:t.signature_size
    ~pool table itree sorting rdig
    (Attach { root = d.root_signature; leaves = d.leaf_signatures })

(* --------------------------- persistence --------------------------- *)

(* The structure is a deterministic function of (table, seed), so the
   wire form stores only the inputs plus the owner's signatures; loading
   rebuilds everything else. Loaders (untrusted servers) cannot check
   the signatures — clients do. *)
let save w t =
  let module W = Aqv_util.Wire in
  W.u8 w (match t.scheme with One_signature -> 0 | Multi_signature -> 1);
  W.varint w t.epoch;
  W.int w (Int64.to_int t.seed);
  W.varint w t.signature_size;
  Aqv_num.Domain.encode w (Table.domain t.table);
  Aqv_db.Template.encode w (Table.template t.table);
  W.list w (Record.encode w) (Array.to_list (Table.records t.table));
  (match t.root_signature with
  | Some s ->
    W.u8 w 1;
    W.bytes w s
  | None -> W.u8 w 0);
  W.list w (W.bytes w) (Array.to_list t.leaf_signatures)

let load ?pool r =
  let module W = Aqv_util.Wire in
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  let scheme =
    match W.read_u8 r with
    | 0 -> One_signature
    | 1 -> Multi_signature
    | _ -> failwith "Ifmh.load: bad scheme tag"
  in
  let epoch = W.read_varint r in
  let seed = Int64.of_int (W.read_int r) in
  let signature_size = W.read_varint r in
  let domain = Aqv_num.Domain.decode r in
  let template = Aqv_db.Template.decode r in
  let records = W.read_list r Record.decode in
  let root_signature = match W.read_u8 r with 1 -> Some (W.read_bytes r) | _ -> None in
  let leaf_signatures = Array.of_list (W.read_list r W.read_bytes) in
  let table =
    match Table.make ~records ~template ~domain with
    | t -> t
    | exception Invalid_argument m -> failwith ("Ifmh.load: " ^ m)
  in
  (* the cheap check first: a rebuild costs the whole structure *)
  if scheme = One_signature && root_signature = None then failwith "Ifmh.load: missing signature";
  let itree, sorting, rdig = build_structure ~seed ~pool table in
  if scheme = Multi_signature && Array.length leaf_signatures <> Itree.leaf_count itree then
    failwith "Ifmh.load: signature count mismatch";
  assemble ~scheme ~seed ~epoch ~signature_size ~pool table itree sorting rdig
    (Attach { root = root_signature; leaves = leaf_signatures })

type build_stats = {
  subdomains : int;
  imh_nodes : int;
  intersections : int;
  signatures : int;
  logical_size_bytes : int;
}

let digest_size = 32
let imh_node_bytes = digest_size + 8 + 16 (* hash + pair ids + two pointers *)

let stats t =
  let subdomains = Itree.leaf_count t.itree in
  let imh_nodes = Itree.node_count t.itree in
  let n = Table.size t.table in
  let fmh_nodes_per_subdomain = (2 * (n + 2)) - 1 in
  let signatures = if t.scheme = One_signature then 1 else subdomains in
  let sig_bytes = t.signature_size in
  {
    subdomains;
    imh_nodes;
    intersections = Itree.intersection_count t.itree;
    signatures;
    logical_size_bytes =
      (imh_nodes * imh_node_bytes)
      + (subdomains * fmh_nodes_per_subdomain * digest_size)
      + (signatures * sig_bytes);
  }
