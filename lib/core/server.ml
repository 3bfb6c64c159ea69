module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Halfspace = Aqv_num.Halfspace
module Pvec = Aqv_util.Pvec
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Table = Aqv_db.Table

type response = { result : Aqv_db.Record.t list; vo : Vo.t }

(* Build the response for a window (in FMH coordinates, sentinel at 0)
   inside the located leaf: boundary records, FMH range proof, and the
   scheme-dependent subdomain proof, all read straight off the index.
   Shared by [answer] and [rank]. *)
let assemble index path_nodes (leaf : Itree.leaf) lists (wlo, whi) =
  let table = Ifmh.table index in
  let order = lists.Sorting.order in
  let n = Pvec.length order in
  let record_at pos =
    Aqv_util.Metrics.add_fmh_nodes 1;
    Table.record table (Pvec.get order (pos - 1))
  in
  let left = if wlo - 1 = 0 then Vo.Min_sentinel else Vo.Boundary_record (record_at (wlo - 1)) in
  let right =
    if whi + 1 = n + 1 then Vo.Max_sentinel else Vo.Boundary_record (record_at (whi + 1))
  in
  let result = List.init (whi - wlo + 1) (fun k -> record_at (wlo + k)) in
  let fmh_proof = Mht.range_proof lists.Sorting.fmh ~lo:(wlo - 1) ~hi:(whi + 1) in
  let subdomain, signature =
    match Ifmh.scheme index with
    | Ifmh.One_signature ->
      let leaf_node = (Itree.leaves (Ifmh.itree index)).(leaf.Itree.id) in
      (* Annotate the descent root-first. [taken] is structural — which
         child the path continues through — which is exactly the side
         the sign test in [Itree.locate] routed to. *)
      let rec steps = function
        | [] -> []
        | (node : Itree.node) :: rest ->
          let next = match rest with n :: _ -> n | [] -> leaf_node in
          (match node.Itree.kind with
          | Itree.Leaf _ -> assert false
          | Itree.Inode inode ->
            let taken, sibling =
              if inode.Itree.above == next then (Halfspace.Above, inode.Itree.below.Itree.h)
              else (Halfspace.Below, inode.Itree.above.Itree.h)
            in
            (* fetching the sibling hash revisits the node *)
            Aqv_util.Metrics.add_itree_nodes 1;
            {
              Vo.rp = Table.record table inode.Itree.i;
              rq = Table.record table inode.Itree.j;
              taken;
              sibling;
            }
            :: steps rest)
      in
      (Vo.One_sig_path (List.rev (steps path_nodes)), Ifmh.root_signature index)
    | Ifmh.Multi_signature ->
      let cons =
        List.rev_map
          (fun (i, j, side) -> (Table.record table i, Table.record table j, side))
          leaf.Itree.cons
      in
      (Vo.Multi_sig_constraints cons, Ifmh.leaf_signature index leaf.Itree.id)
  in
  {
    result;
    vo =
      {
        Vo.n_leaves = n + 2;
        epoch = Ifmh.epoch index;
        window_lo = wlo;
        left;
        right;
        fmh_proof;
        subdomain;
        signature;
      };
  }

let answer index query =
  let table = Ifmh.table index in
  let fns = Table.functions table in
  let x = Query.x query in
  let path_nodes, leaf = Itree.locate (Ifmh.itree index) x in
  let lists = Sorting.leaf (Ifmh.sorting index) leaf.Itree.id in
  let order = lists.Sorting.order in
  let n = Pvec.length order in
  (* every probe into the sorted list models an FMH-tree descent *)
  let score i =
    Aqv_util.Metrics.add_fmh_nodes 1;
    Linfun.eval fns.(Pvec.get order i) x
  in
  let window =
    match Query.window ~n ~score query with
    | Some (a, b) -> (a + 1, b + 1)
    | None ->
      (* empty range answer: boundaries are the two records around the
         insertion point of l *)
      let l = match query with Query.Range { l; _ } -> l | _ -> assert false in
      let ins = Query.insertion_point ~n ~score l in
      (ins + 1, ins)
  in
  assemble index path_nodes leaf lists window

let rank index ~x ~record_id =
  let table = Ifmh.table index in
  match Table.position_by_id table record_id with
  | None -> None
  | Some target ->
    let fns = Table.functions table in
    let path_nodes, leaf = Itree.locate (Ifmh.itree index) x in
    let lists = Sorting.leaf (Ifmh.sorting index) leaf.Itree.id in
    let order = lists.Sorting.order in
    let n = Pvec.length order in
    let score i =
      Aqv_util.Metrics.add_fmh_nodes 1;
      Linfun.eval fns.(Pvec.get order i) x
    in
    let s = Linfun.eval fns.(target) x in
    (* the record sits in the contiguous tie group of its score *)
    let rec find i =
      if i >= n || Q.compare (score i) s > 0 then
        (* exact scores can only miss if the structures are corrupt *)
        invalid_arg "Server.rank: record not found in its subdomain order"
      else if Pvec.get order i = target then i
      else find (i + 1)
    in
    let i = find (Query.insertion_point ~n ~score s) in
    Some (assemble index path_nodes leaf lists (i + 1, i + 1))

let response_result_size resp =
  let w = Aqv_util.Wire.writer () in
  Aqv_util.Wire.list w (Record.encode w) resp.result;
  Aqv_util.Wire.size w

let encode_response w resp =
  Aqv_util.Wire.list w (Record.encode w) resp.result;
  Vo.encode w resp.vo

let decode_response r =
  let result = Aqv_util.Wire.read_list r Record.decode in
  let vo = Vo.decode r in
  { result; vo }
