type 'a t =
  | Leaf of { h : string; v : 'a }
  | Node of { h : string; size : int; l : 'a t; r : 'a t }

let interior_tag = "\x03"

let node_hash l r = Aqv_crypto.Sha256.digest_list [ interior_tag; l; r ]

let size = function Leaf _ -> 1 | Node n -> n.size
let root = function Leaf { h; _ } | Node { h; _ } -> h

let node l r = Node { h = node_hash (root l) (root r); size = size l + size r; l; r }

(* Left-subtree size of an [n]-leaf tree: the largest power of two
   strictly below [n], or [n/2] if [n] is a power of two. Matches the
   paper's pair-and-promote construction. *)
let split_point n =
  let rec go p = if p * 2 < n then go (p * 2) else p in
  go 1

let init n f =
  if n < 1 then invalid_arg "Mht.init: empty";
  let rec build lo n =
    if n = 1 then (let h, v = f lo in Leaf { h; v })
    else begin
      let p = split_point n in
      node (build lo p) (build (lo + p) (n - p))
    end
  in
  build 0 n

let rec find t i =
  match t with
  | Leaf _ as l -> if i = 0 then l else invalid_arg "Mht: leaf index out of bounds"
  | Node { l; r; _ } ->
    let sl = size l in
    if i < 0 then invalid_arg "Mht: leaf index out of bounds"
    else if i < sl then find l i
    else find r (i - sl)

let leaf t i = root (find t i)
let value t i = match find t i with Leaf { v; _ } -> v | Node _ -> assert false

(* Right to left over the subtrees that meet [lo, hi], consing onto the
   values already mapped; [off] is the index of [t]'s first leaf. *)
let rec map_range_onto t off ~lo ~hi f acc =
  match t with
  | Leaf { v; _ } -> f v :: acc
  | Node { l; r; _ } ->
    let mid = off + size l in
    let acc = if hi >= mid then map_range_onto r mid ~lo ~hi f acc else acc in
    if lo < mid then map_range_onto l off ~lo ~hi f acc else acc

let map_range t ~lo ~hi f =
  if lo > hi then []
  else if lo < 0 || hi >= size t then invalid_arg "Mht.map_range: out of bounds"
  else map_range_onto t 0 ~lo ~hi f []

(* One descent for a whole change set: the sorted changes are split at
   each node's left size, so every node on the union of their root
   paths is rebuilt — and hashed — exactly once. *)
let set_many t changes =
  let n = size t in
  ignore
    (List.fold_left
       (fun prev (i, _, _) ->
         if i <= prev || i >= n then
           invalid_arg "Mht.set_many: index out of bounds, repeated or unsorted";
         i)
       (-1) changes);
  let rec go t off changes =
    match (changes, t) with
    | [], _ -> t
    | [ (_, h, v) ], Leaf _ -> Leaf { h; v }
    | _, Leaf _ -> assert false
    | _, Node { l; r; _ } ->
      let mid = off + size l in
      let left, right = List.partition (fun (i, _, _) -> i < mid) changes in
      node (go l off left) (go r mid right)
  in
  go t 0 changes

type path_elem = { sibling : string; sibling_on_left : bool }

let auth_path t i =
  let rec go t i acc =
    match t with
    | Leaf _ ->
      Aqv_util.Metrics.add_fmh_nodes 1;
      acc
    | Node { l; r; _ } ->
      Aqv_util.Metrics.add_fmh_nodes 1;
      let sl = size l in
      if i < sl then go l i ({ sibling = root r; sibling_on_left = false } :: acc)
      else go r (i - sl) ({ sibling = root l; sibling_on_left = true } :: acc)
  in
  if i < 0 || i >= size t then invalid_arg "Mht.auth_path: out of bounds";
  (* prepending while descending leaves the deepest sibling first,
     i.e. the list comes out in leaf-to-root order *)
  go t i []

let root_of_path ~leaf ~path =
  List.fold_left
    (fun h { sibling; sibling_on_left } ->
      if sibling_on_left then node_hash sibling h else node_hash h sibling)
    leaf path

let index_of_path ~n ~path =
  (* the path is leaf-to-root; walk the shape from the root down *)
  let rec go sz steps off =
    match steps with
    | [] -> if sz = 1 then Some off else None
    | { sibling_on_left; _ } :: rest ->
      if sz <= 1 then None
      else begin
        let p = split_point sz in
        if sibling_on_left then go (sz - p) rest (off + p) else go p rest off
      end
  in
  if n < 1 then None else go n (List.rev path) 0

let range_proof t ~lo ~hi =
  if lo < 0 || hi >= size t || lo > hi then invalid_arg "Mht.range_proof: bounds";
  let rec go t off acc =
    let n = size t in
    if off > hi || off + n - 1 < lo then begin
      (* disjoint: one opaque digest *)
      Aqv_util.Metrics.add_fmh_nodes 1;
      root t :: acc
    end
    else if lo <= off && off + n - 1 <= hi then acc (* fully inside: client rebuilds *)
    else begin
      match t with
      | Leaf _ -> acc (* single leaf inside the range *)
      | Node { l; r; _ } ->
        Aqv_util.Metrics.add_fmh_nodes 1;
        go r (off + size l) (go l off acc)
    end
  in
  List.rev (go t 0 [])

let root_of_range ~node_hash ~n ~lo ~leaves ~proof =
  let leaves = Array.of_list leaves in
  let hi = lo + Array.length leaves - 1 in
  if n < 1 || lo < 0 || hi >= n || Array.length leaves = 0 then None
  else begin
    let proof = ref proof in
    let take () =
      match !proof with
      | [] -> raise Exit
      | x :: rest ->
        proof := rest;
        x
    in
    (* mirror the traversal of [range_proof] over the shape implied by n *)
    let rec go off sz =
      if off > hi || off + sz - 1 < lo then take ()
      else if lo <= off && off + sz - 1 <= hi then rebuild off sz
      else begin
        let p = split_point sz in
        let lh = go off p in
        let rh = go (off + p) (sz - p) in
        node_hash lh rh
      end
    and rebuild off sz =
      (* whole subtree is inside the range: hash it from the leaves *)
      if sz = 1 then leaves.(off - lo)
      else begin
        let p = split_point sz in
        let lh = rebuild off p in
        let rh = rebuild (off + p) (sz - p) in
        node_hash lh rh
      end
    in
    match go 0 n with
    | h -> if !proof = [] then Some h else None
    | exception Exit -> None
  end
