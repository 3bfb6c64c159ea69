module Q = Aqv_num.Rational
module Region = Aqv_num.Region
module Halfspace = Aqv_num.Halfspace
module Linfun = Aqv_num.Linfun

type node = { region : Region.t; mutable h : string; mutable kind : kind }
and kind = Leaf of leaf | Inode of inode
and leaf = { mutable id : int; cons : (int * int * Halfspace.side) list }

and inode = { i : int; j : int; diff : Linfun.t; above : node; below : node }

type t = {
  root : node;
  domain : Aqv_num.Domain.t;
  mutable leaf_nodes : node array;
  mutable intersections : int;
  mutable nodes : int;
}

let root t = t.root
let leaf_count t = Array.length t.leaf_nodes
let leaves t = t.leaf_nodes
let node_count t = t.nodes
let intersection_count t = t.intersections

let fresh_leaf region cons = { region; h = ""; kind = Leaf { id = -1; cons } }

(* Split a leaf by a crossing pair's hyperplane into its [above] and
   [below] halves, each carving its side onto the leaf's constraint
   list. The caller knows the hyperplane properly crosses the leaf. *)
let split t node cons ({ i; j; diff; _ } : Crossings.pair) =
  let half h =
    match Region.add node.region h with Some r -> r | None -> assert false (* a proper split *)
  in
  let above = fresh_leaf (half (Halfspace.above diff)) ((i, j, Halfspace.Above) :: cons) in
  let below = fresh_leaf (half (Halfspace.below diff)) ((i, j, Halfspace.Below) :: cons) in
  node.kind <- Inode { i; j; diff; above; below };
  t.nodes <- t.nodes + 2;
  (above, below)

(* Insert a crossing pair: split every leaf whose region its hyperplane
   properly crosses. The enumerator retained the pair because it
   crosses the whole domain box, so the root — whose region is the box
   — is known to classify Split without asking again. *)
let insert t (p : Crossings.pair) =
  let split_any = ref false in
  let rec go ~known node =
    match (match known with Some c -> c | None -> Region.classify node.region p.diff) with
    | Region.Pos | Region.Neg -> ()
    | Region.Split ->
      (match node.kind with
      | Inode n ->
        go ~known:None n.above;
        go ~known:None n.below
      | Leaf lf ->
        ignore (split t node lf.cons p);
        split_any := true)
  in
  go ~known:(Some Region.Split) t.root;
  if !split_any then t.intersections <- t.intersections + 1

let collect_leaves root =
  let acc = ref [] in
  let rec go node =
    match node.kind with
    | Leaf _ -> acc := node :: !acc
    | Inode n ->
      go n.above;
      go n.below
  in
  go root;
  !acc

(* The 1-D tree without inserting. Inserting pair after pair descends
   by root and stops at an equal root, so what it grows is the BST of
   the distinct roots in order of first arrival: the treap keyed by
   root whose priority is the insertion rank of the root's first pair,
   least on top, each node split by that first pair. The roots arrive
   sorted ([Crossings.by_root]), so one stack pass links the treap —
   each root pops the later-ranked roots to its left and hangs them as
   its left subtree — and one walk from the top materialises it with
   the splits insertion would make, numbering leaves left to right. *)
let build_1d t (cr : Crossings.t) rank =
  let groups = cr.by_root in
  let g = Array.length groups in
  let first =
    Array.map
      (fun members ->
        Array.fold_left (fun best p -> if rank.(p) < rank.(best) then p else best) members.(0) members)
      groups
  in
  let left = Array.make g (-1) and right = Array.make g (-1) in
  let stack = Array.make g 0 and top = ref 0 in
  for x = 0 to g - 1 do
    let popped = ref (-1) in
    while !top > 0 && rank.(first.(stack.(!top - 1))) > rank.(first.(x)) do
      decr top;
      popped := stack.(!top)
    done;
    left.(x) <- !popped;
    if !top > 0 then right.(stack.(!top - 1)) <- x;
    stack.(!top) <- x;
    incr top
  done;
  let leaf_nodes = Array.make (g + 1) t.root and next = ref 0 in
  let rec grow node x =
    match node.kind with
    | Inode _ -> assert false
    | Leaf lf when x < 0 ->
      lf.id <- !next;
      leaf_nodes.(!next) <- node;
      incr next
    | Leaf lf ->
      let p = cr.pairs.(first.(x)) in
      let above, below = split t node lf.cons p in
      (* above covers the right side of the root iff the slope is positive *)
      let lo, hi = if Q.sign (Linfun.coeff p.diff 0) > 0 then (below, above) else (above, below) in
      grow lo left.(x);
      grow hi right.(x)
  in
  grow t.root (if g = 0 then -1 else stack.(0));
  t.intersections <- g;
  t.leaf_nodes <- leaf_nodes

let build ?(seed = 0x17EEL) ?(order = `Shuffled) ?crossings dom fns =
  let root = fresh_leaf (Region.of_domain dom) [] in
  let t = { root; domain = dom; leaf_nodes = [||]; intersections = 0; nodes = 1 } in
  (* the crossing enumerator has already reduced the Θ(n²) pair space
     to the crossing pairs — the only pairs whose insertion does
     anything. Callers that enumerated up front (Ifmh.build_structure
     shares one pass with the 1-D sweep) hand the result in; otherwise
     enumerate here, sequentially. *)
  let cr = match crossings with Some c -> c | None -> Crossings.enumerate dom fns in
  (* inserted in a seeded random order: a random order keeps the
     expected tree depth logarithmic in the number of subdomains, like
     a randomly built BST. Shuffling the crossing list (not the full
     pair set) is sound: non-crossing pairs are no-ops on the tree, so
     the shape depends only on the crossing pairs' relative order — and
     deterministic: the list arrives in canonical lexicographic order
     and the shuffle's draws depend only on its length, both pure
     functions of (functions, domain). [inserted.(s)] is the index of
     the pair inserted s-th. *)
  let inserted = Array.init (Crossings.count cr) Fun.id in
  (match order with
  | `Shuffled -> Aqv_util.Prng.shuffle (Aqv_util.Prng.create seed) inserted
  | `Lexicographic -> ());
  if Aqv_num.Domain.dim dom = 1 then begin
    let rank = Array.make (Array.length inserted) 0 in
    Array.iteri (fun s p -> rank.(p) <- s) inserted;
    build_1d t cr rank
  end
  else begin
    Array.iter (fun p -> insert t cr.pairs.(p)) inserted;
    let leaf_nodes = Array.of_list (collect_leaves root) in
    Array.iteri
      (fun idx node -> match node.kind with Leaf lf -> lf.id <- idx | Inode _ -> assert false)
      leaf_nodes;
    t.leaf_nodes <- leaf_nodes
  end;
  t

let depth_fold t ~init ~leaf_at =
  let rec go node d acc =
    match node.kind with
    | Leaf _ -> leaf_at acc d
    | Inode n -> go n.below (d + 1) (go n.above (d + 1) acc)
  in
  go t.root 0 init

let max_depth t = depth_fold t ~init:0 ~leaf_at:(fun acc d -> if d > acc then d else acc)

let average_leaf_depth t =
  let total = depth_fold t ~init:0 ~leaf_at:(fun acc d -> acc + d) in
  float_of_int total /. float_of_int (leaf_count t)

let locate t x =
  if not (Aqv_num.Domain.contains t.domain x) then invalid_arg "Itree.locate: outside domain";
  let rec go node path =
    Aqv_util.Metrics.add_itree_nodes 1;
    match node.kind with
    | Leaf lf -> (List.rev path, lf)
    | Inode n ->
      (* each descent step is one exact-rational sign test, of the
         unreduced value: the sign needs no gcd *)
      Aqv_util.Metrics.add_locate_sign_tests 1;
      if Q.sign_unreduced (Linfun.eval_unreduced n.diff x) >= 0 then go n.above (node :: path)
      else go n.below (node :: path)
  in
  go t.root []
