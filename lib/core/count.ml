module Q = Aqv_num.Rational
module W = Aqv_util.Wire
module Mht = Aqv_merkle.Mht

type anchor = { boundary : Vo.boundary; path : Mht.path_elem list }

type response = {
  n_leaves : int;
  epoch : int;
  louter : anchor;
  router : anchor;
  inner : (anchor * anchor) option;
  subdomain : Vo.subdomain_proof;
  signature : string;
}

let answer index ~x ~l ~u =
  if Q.compare l u > 0 then invalid_arg "Count.answer: l > u";
  (* reuse the range machinery for window location and subdomain proof;
     its one descent also yields the FMH-tree the anchors' paths come from *)
  let at = Server.locate index x in
  let resp = Server.answer_at index at (Query.range ~x ~l ~u) in
  let vo = resp.Server.vo in
  let count = List.length resp.Server.result in
  let wlo = vo.Vo.window_lo in
  let whi = wlo + count - 1 in
  let anchor_of boundary pos = { boundary; path = Mht.auth_path at.Server.fmh pos } in
  let inner =
    if count = 0 then None
    else begin
      let first = List.hd resp.Server.result in
      let last = List.nth resp.Server.result (count - 1) in
      Some (anchor_of (Vo.Boundary_record first) wlo, anchor_of (Vo.Boundary_record last) whi)
    end
  in
  {
    n_leaves = vo.Vo.n_leaves;
    epoch = vo.Vo.epoch;
    louter = anchor_of vo.Vo.left (wlo - 1);
    router = anchor_of vo.Vo.right (whi + 1);
    inner;
    subdomain = vo.Vo.subdomain;
    signature = vo.Vo.signature;
  }

let verify_memoized ctx ~x ~l ~u resp =
  let open Semantics in
  match
    guard (Q.compare l u <= 0) Malformed;
    guard (resp.epoch >= Client.min_epoch ctx) Stale_epoch;
    let dom = Client.domain ctx in
    guard (Array.length x = Aqv_num.Domain.dim dom) Outside_domain;
    guard (Aqv_num.Domain.contains dom x) Outside_domain;
    let n = resp.n_leaves - 2 in
    guard (n >= 1) Malformed;
    (* every anchor must commit to the same FMH root and a position *)
    let resolve anchor =
      let root = Mht.root_of_path ~leaf:(Client.boundary_digest ctx anchor.boundary) ~path:anchor.path in
      match Mht.index_of_path ~n:resp.n_leaves ~path:anchor.path with
      | Some i -> (root, i)
      | None -> raise (Reject Malformed)
    in
    let root_l, il = resolve resp.louter in
    let root_r, ir = resolve resp.router in
    guard (String.equal root_l root_r) Malformed;
    guard (il < ir && ir <= resp.n_leaves - 1) Malformed;
    (* outer sentinels are only legal at the list ends *)
    (match resp.louter.boundary with
    | Vo.Min_sentinel -> guard (il = 0) Malformed
    | Vo.Boundary_record _ -> guard (il >= 1) Malformed
    | Vo.Max_sentinel -> raise (Reject Malformed));
    (match resp.router.boundary with
    | Vo.Max_sentinel -> guard (ir = resp.n_leaves - 1) Malformed
    | Vo.Boundary_record _ -> guard (ir <= n) Malformed
    | Vo.Min_sentinel -> raise (Reject Malformed));
    let count = ir - il - 1 in
    let score_of = function
      | Vo.Min_sentinel | Vo.Max_sentinel -> None
      | Vo.Boundary_record r -> Some (score (Client.template ctx) r x)
    in
    let l = Q.to_unreduced l and u = Q.to_unreduced u in
    (* outer records strictly outside the range *)
    (match score_of resp.louter.boundary with
    | None -> ()
    | Some s -> guard (Q.compare_unreduced s l < 0) Boundary_violation);
    (match score_of resp.router.boundary with
    | None -> ()
    | Some s -> guard (Q.compare_unreduced s u > 0) Boundary_violation);
    (* inner anchors: the window's first and last member are in range;
       interior membership follows from the committed order *)
    (match (resp.inner, count) with
    | None, 0 -> ()
    | None, _ | Some _, 0 -> raise (Reject Count_mismatch)
    | Some (linner, rinner), _ ->
      let root_li, ili = resolve linner in
      let root_ri, iri = resolve rinner in
      guard (String.equal root_li root_l && String.equal root_ri root_l) Malformed;
      guard (ili = il + 1 && iri = ir - 1) Malformed;
      let in_range a =
        match score_of a.boundary with
        | Some s -> Q.compare_unreduced l s <= 0 && Q.compare_unreduced s u <= 0
        | None -> false (* sentinels never match a value condition *)
      in
      guard (in_range linner) Boundary_violation;
      guard (in_range rinner) Boundary_violation);
    (* subdomain + signature *)
    Client.check_subdomain_proof ctx ~x ~fmh_root:root_l ~n_leaves:resp.n_leaves
      ~epoch:resp.epoch resp.subdomain ~signature:resp.signature;
    count
  with
  | count -> Ok count
  | exception Reject r -> Error r

let verify ctx ~x ~l ~u resp =
  Client.with_memo ctx (fun ctx -> verify_memoized ctx ~x ~l ~u resp)

let encode_anchor w a =
  Vo.encode_boundary w a.boundary;
  W.list w
    (fun (e : Mht.path_elem) ->
      W.u8 w (if e.Mht.sibling_on_left then 1 else 0);
      W.bytes w e.Mht.sibling)
    a.path

let decode_anchor r =
  let boundary = Vo.decode_boundary r in
  let path =
    W.read_list r (fun r ->
        let sibling_on_left = W.read_u8 r = 1 in
        let sibling = W.read_bytes r in
        { Mht.sibling; sibling_on_left })
  in
  { boundary; path }

let encode w resp =
  W.varint w resp.n_leaves;
  W.varint w resp.epoch;
  encode_anchor w resp.louter;
  encode_anchor w resp.router;
  (match resp.inner with
  | None -> W.u8 w 0
  | Some (a, b) ->
    W.u8 w 1;
    encode_anchor w a;
    encode_anchor w b);
  Vo.encode_subdomain w resp.subdomain;
  W.bytes w resp.signature

let decode r =
  let n_leaves = W.read_varint r in
  let epoch = W.read_varint r in
  let louter = decode_anchor r in
  let router = decode_anchor r in
  let inner =
    match W.read_u8 r with
    | 0 -> None
    | 1 ->
      let a = decode_anchor r in
      let b = decode_anchor r in
      Some (a, b)
    | _ -> failwith "Count: bad inner tag"
  in
  let subdomain = Vo.decode_subdomain r in
  let signature = W.read_bytes r in
  { n_leaves; epoch; louter; router; inner; subdomain; signature }

let size_bytes resp =
  let w = W.writer () in
  encode w resp;
  let sz = W.size w in
  Aqv_util.Metrics.add_bytes_out sz;
  sz
