module W = Aqv_util.Wire
module Record = Aqv_db.Record
module Halfspace = Aqv_num.Halfspace

type boundary = Min_sentinel | Max_sentinel | Boundary_record of Record.t

type path_step = {
  rp : Record.t;
  rq : Record.t;
  taken : Halfspace.side;
  sibling : string;
}

type subdomain_proof =
  | One_sig_path of path_step list
  | Multi_sig_constraints of (Record.t * Record.t * Halfspace.side) list

type t = {
  n_leaves : int;
  epoch : int;
  window_lo : int;
  left : boundary;
  right : boundary;
  fmh_proof : string list;
  subdomain : subdomain_proof;
  signature : string;
}

let encode_boundary w = function
  | Min_sentinel -> W.u8 w 0
  | Max_sentinel -> W.u8 w 1
  | Boundary_record r ->
    W.u8 w 2;
    Record.encode w r

let decode_boundary r =
  match W.read_u8 r with
  | 0 -> Min_sentinel
  | 1 -> Max_sentinel
  | 2 -> Boundary_record (Record.decode r)
  | _ -> failwith "Vo: bad boundary tag"

(* a multi-sig constraint, and a one-sig path step less its sibling *)
let encode_constraint w rp rq side =
  Record.encode w rp;
  Record.encode w rq;
  W.u8 w (Halfspace.side_to_int side)

let decode_constraint r =
  let rp = Record.decode r in
  let rq = Record.decode r in
  match W.read_u8 r with
  | 0 -> (rp, rq, Halfspace.Above)
  | 1 -> (rp, rq, Halfspace.Below)
  | _ -> failwith "Vo: bad side tag"

let encode_subdomain w = function
  | One_sig_path steps ->
    W.u8 w 0;
    W.list w
      (fun s ->
        encode_constraint w s.rp s.rq s.taken;
        W.bytes w s.sibling)
      steps
  | Multi_sig_constraints cons ->
    W.u8 w 1;
    W.list w (fun (rp, rq, side) -> encode_constraint w rp rq side) cons

let decode_subdomain r =
  match W.read_u8 r with
  | 0 ->
    One_sig_path
      (W.read_list r (fun r ->
           let rp, rq, taken = decode_constraint r in
           { rp; rq; taken; sibling = W.read_bytes r }))
  | 1 -> Multi_sig_constraints (W.read_list r decode_constraint)
  | _ -> failwith "Vo: bad subdomain tag"

let encode w t =
  W.varint w t.n_leaves;
  W.varint w t.epoch;
  W.varint w t.window_lo;
  encode_boundary w t.left;
  encode_boundary w t.right;
  W.list w (W.bytes w) t.fmh_proof;
  encode_subdomain w t.subdomain;
  W.bytes w t.signature

let decode r =
  let n_leaves = W.read_varint r in
  let epoch = W.read_varint r in
  let window_lo = W.read_varint r in
  let left = decode_boundary r in
  let right = decode_boundary r in
  let fmh_proof = W.read_list r W.read_bytes in
  let subdomain = decode_subdomain r in
  let signature = W.read_bytes r in
  { n_leaves; epoch; window_lo; left; right; fmh_proof; subdomain; signature }

let size_bytes t =
  let w = W.writer () in
  encode w t;
  let n = W.size w in
  Aqv_util.Metrics.add_bytes_out n;
  n

let pp ppf t =
  let kind, extra =
    match t.subdomain with
    | One_sig_path steps -> ("one-sig", List.length steps)
    | Multi_sig_constraints cons -> ("multi-sig", List.length cons)
  in
  Format.fprintf ppf "vo{%s, n=%d, lo=%d, proof=%d digests, subdomain=%d elems}" kind
    t.n_leaves t.window_lo (List.length t.fmh_proof) extra
