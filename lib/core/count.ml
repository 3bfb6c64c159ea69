module Q = Aqv_num.Rational
module W = Aqv_util.Wire
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record

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
  (* reuse the range machinery for window location and subdomain proof *)
  let query = Query.range ~x ~l ~u in
  let resp = Server.answer index query in
  let vo = resp.Server.vo in
  let count = List.length resp.Server.result in
  let wlo = vo.Vo.window_lo in
  let whi = wlo + count - 1 in
  let _, leaf = Itree.locate (Ifmh.itree index) x in
  let lists = Sorting.leaf (Ifmh.sorting index) leaf.Itree.id in
  let fmh = lists.Sorting.fmh in
  let anchor_of boundary pos = { boundary; path = Mht.auth_path fmh pos } in
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

let encode w resp =
  W.varint w resp.n_leaves;
  W.varint w resp.epoch;
  let enc_boundary = function
    | Vo.Min_sentinel -> W.u8 w 0
    | Vo.Max_sentinel -> W.u8 w 1
    | Vo.Boundary_record r ->
      W.u8 w 2;
      Record.encode w r
  in
  let enc_anchor a =
    enc_boundary a.boundary;
    W.list w
      (fun (e : Mht.path_elem) ->
        W.u8 w (if e.Mht.sibling_on_left then 1 else 0);
        W.bytes w e.Mht.sibling)
      a.path
  in
  enc_anchor resp.louter;
  enc_anchor resp.router;
  (match resp.inner with
  | None -> W.u8 w 0
  | Some (a, b) ->
    W.u8 w 1;
    enc_anchor a;
    enc_anchor b);
  (match resp.subdomain with
  | Vo.One_sig_path steps ->
    W.u8 w 0;
    W.list w
      (fun (s : Vo.path_step) ->
        Record.encode w s.Vo.rp;
        Record.encode w s.Vo.rq;
        W.u8 w (Aqv_num.Halfspace.side_to_int s.Vo.taken);
        W.bytes w s.Vo.sibling)
      steps
  | Vo.Multi_sig_constraints cons ->
    W.u8 w 1;
    W.list w
      (fun (rp, rq, side) ->
        Record.encode w rp;
        Record.encode w rq;
        W.u8 w (Aqv_num.Halfspace.side_to_int side))
      cons);
  W.bytes w resp.signature

let decode r =
  let n_leaves = W.read_varint r in
  let epoch = W.read_varint r in
  let dec_boundary r =
    match W.read_u8 r with
    | 0 -> Vo.Min_sentinel
    | 1 -> Vo.Max_sentinel
    | 2 -> Vo.Boundary_record (Record.decode r)
    | _ -> failwith "Count: bad boundary tag"
  in
  let dec_anchor r =
    let boundary = dec_boundary r in
    let path =
      W.read_list r (fun r ->
          let sibling_on_left = W.read_u8 r = 1 in
          let sibling = W.read_bytes r in
          { Mht.sibling; sibling_on_left })
    in
    { boundary; path }
  in
  let louter = dec_anchor r in
  let router = dec_anchor r in
  let inner =
    match W.read_u8 r with
    | 0 -> None
    | 1 ->
      let a = dec_anchor r in
      let b = dec_anchor r in
      Some (a, b)
    | _ -> failwith "Count: bad inner tag"
  in
  let subdomain =
    match W.read_u8 r with
    | 0 ->
      Vo.One_sig_path
        (W.read_list r (fun r ->
             let rp = Record.decode r in
             let rq = Record.decode r in
             let taken =
               match W.read_u8 r with
               | 0 -> Aqv_num.Halfspace.Above
               | 1 -> Aqv_num.Halfspace.Below
               | _ -> failwith "Count: bad side"
             in
             let sibling = W.read_bytes r in
             { Vo.rp; rq; taken; sibling }))
    | 1 ->
      Vo.Multi_sig_constraints
        (W.read_list r (fun r ->
             let rp = Record.decode r in
             let rq = Record.decode r in
             let side =
               match W.read_u8 r with
               | 0 -> Aqv_num.Halfspace.Above
               | 1 -> Aqv_num.Halfspace.Below
               | _ -> failwith "Count: bad side"
             in
             (rp, rq, side)))
    | _ -> failwith "Count: bad subdomain tag"
  in
  let signature = W.read_bytes r in
  { n_leaves; epoch; louter; router; inner; subdomain; signature }

let size_bytes resp =
  let w = W.writer () in
  encode w resp;
  let sz = W.size w in
  Aqv_util.Metrics.add_bytes_out sz;
  sz
