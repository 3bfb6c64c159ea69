module Q = Aqv_num.Rational
module W = Aqv_util.Wire
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record

type item = {
  result : Record.t list;
  window_lo : int;
  left : Vo.boundary;
  right : Vo.boundary;
  fmh_proof : string list;
}

type response = {
  n_leaves : int;
  epoch : int;
  subdomain : Vo.subdomain_proof;
  signature : string;
  items : item list;
}

let answer index ~x queries =
  if queries = [] then invalid_arg "Batch.answer: no queries";
  List.iter
    (fun q ->
      if not (Array.for_all2 Q.equal (Query.x q) x) then
        invalid_arg "Batch.answer: mismatched query input")
    queries;
  let responses = List.map (Server.answer index) queries in
  match responses with
  | [] -> assert false
  | first :: _ ->
    let vo0 = first.Server.vo in
    {
      n_leaves = vo0.Vo.n_leaves;
      epoch = vo0.Vo.epoch;
      subdomain = vo0.Vo.subdomain;
      signature = vo0.Vo.signature;
      items =
        List.map
          (fun (r : Server.response) ->
            {
              result = r.Server.result;
              window_lo = r.Server.vo.Vo.window_lo;
              left = r.Server.vo.Vo.left;
              right = r.Server.vo.Vo.right;
              fmh_proof = r.Server.vo.Vo.fmh_proof;
            })
          responses;
    }

let to_responses resp =
  List.map
    (fun item ->
      {
        Server.result = item.result;
        vo =
          {
            Vo.n_leaves = resp.n_leaves;
            epoch = resp.epoch;
            window_lo = item.window_lo;
            left = item.left;
            right = item.right;
            fmh_proof = item.fmh_proof;
            subdomain = resp.subdomain;
            signature = resp.signature;
          };
      })
    resp.items

let verify_memoized ctx ~x queries resp =
  let open Semantics in
  match
    guard (queries <> [] && List.length queries = List.length resp.items) Malformed;
    guard (resp.epoch >= Client.min_epoch ctx) Stale_epoch;
    let template = Client.template ctx in
    let dom = Client.domain ctx in
    guard (Array.length x = Aqv_num.Domain.dim dom) Outside_domain;
    guard (Aqv_num.Domain.contains dom x) Outside_domain;
    List.iter
      (fun q -> guard (Array.for_all2 Q.equal (Query.x q) x) Malformed)
      queries;
    let n = resp.n_leaves - 2 in
    guard (n >= 1) Malformed;
    (* reconstruct every item's root; they must all agree *)
    let root_of item =
      Client.window_root ctx ~n_leaves:resp.n_leaves ~window_lo:item.window_lo
        ~left:item.left ~result:item.result ~right:item.right ~fmh_proof:item.fmh_proof
    in
    let roots = List.map root_of resp.items in
    let fmh_root = List.hd roots in
    List.iter (fun r -> guard (String.equal r fmh_root) Malformed) roots;
    (* one shared subdomain check *)
    Client.check_subdomain_proof ctx ~x ~fmh_root ~n_leaves:resp.n_leaves ~epoch:resp.epoch
      resp.subdomain ~signature:resp.signature;
    (* per-query semantics *)
    List.iter2
      (fun q item ->
        Semantics.check_window ~template ~x ~n ~query:q ~left:item.left ~right:item.right
          ~result:item.result)
      queries resp.items
  with
  | () -> Ok ()
  | exception Reject r -> Error r
  | exception Invalid_argument _ -> Error Malformed

let verify ctx ~x queries resp =
  Client.with_memo ctx (fun ctx -> verify_memoized ctx ~x queries resp)

let size_bytes resp =
  let w = W.writer () in
  W.varint w resp.n_leaves;
  W.varint w resp.epoch;
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
  W.bytes w resp.signature;
  W.list w
    (fun item ->
      W.varint w item.window_lo;
      (match item.left with
      | Vo.Min_sentinel -> W.u8 w 0
      | Vo.Max_sentinel -> W.u8 w 1
      | Vo.Boundary_record r ->
        W.u8 w 2;
        Record.encode w r);
      (match item.right with
      | Vo.Min_sentinel -> W.u8 w 0
      | Vo.Max_sentinel -> W.u8 w 1
      | Vo.Boundary_record r ->
        W.u8 w 2;
        Record.encode w r);
      W.list w (W.bytes w) item.fmh_proof)
    resp.items;
  let sz = W.size w in
  Aqv_util.Metrics.add_bytes_out sz;
  sz
