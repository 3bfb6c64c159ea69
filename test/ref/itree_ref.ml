(* Reference 1-D I-tree for the tree-law qcheck: the paper's sequential
   insertion, one crossing pair at a time in the seeded order, with a
   shadow BST of the split roots beside the real tree, then the leaves
   re-sorted left to right. [Itree.build] must build the same tree node
   for node — pair, side, region and constraint list — with the same
   leaf ids and counts. *)

module Q = Aqv_num.Rational
module Region = Aqv_num.Region
module Halfspace = Aqv_num.Halfspace
module Linfun = Aqv_num.Linfun
open Aqv

type t = {
  root : Itree.node;
  leaves : Itree.node array;  (** by leaf id *)
  intersections : int;
  nodes : int;
}

let fresh_leaf region cons = { Itree.region; h = ""; kind = Itree.Leaf { Itree.id = -1; cons } }

(* The 1-D descent only ever asks "is our root left or right of an
   earlier split's root", so a shadow of the tree caching those roots
   answers every step with one comparison. [left]/[right] are interval
   order; which of them is the real node's [above] child depends on the
   slope sign. Reaching a real leaf means the root is strictly inside
   its interval — exactly [Region.classify]'s Split on that leaf — so
   split it. A root equal to an earlier split's stops the descent: the
   generic walk classifies both children Pos/Neg there and splits
   nothing. *)
type shadow = SLeaf of Itree.node | SNode of { r : Q.t; left : shadow ref; right : shadow ref }

let insert_1d counts shadow ({ Crossings.i; j; diff; root } : Crossings.pair) =
  let r = Option.get root in
  let rec go s =
    match !s with
    | SNode { r = rn; left; right } ->
      let c = Q.compare r rn in
      if c < 0 then go left else if c > 0 then go right
    | SLeaf node ->
      let lf = match node.Itree.kind with Itree.Leaf lf -> lf | Itree.Inode _ -> assert false in
      let region_a = Option.get (Region.add node.Itree.region (Halfspace.above diff)) in
      let region_b = Option.get (Region.add node.Itree.region (Halfspace.below diff)) in
      let above = fresh_leaf region_a ((i, j, Halfspace.Above) :: lf.Itree.cons) in
      let below = fresh_leaf region_b ((i, j, Halfspace.Below) :: lf.Itree.cons) in
      node.Itree.kind <- Itree.Inode { Itree.i; j; diff; above; below };
      let nodes, intersections = !counts in
      counts := (nodes + 2, intersections + 1);
      let sa = ref (SLeaf above) and sb = ref (SLeaf below) in
      (* above covers the right side of the root iff the slope is positive *)
      let left, right = if Q.sign (Linfun.coeff diff 0) > 0 then (sb, sa) else (sa, sb) in
      s := SNode { r; left; right }
  in
  go shadow

let rec collect node acc =
  match node.Itree.kind with
  | Itree.Leaf _ -> node :: acc
  | Itree.Inode n -> collect n.Itree.above (collect n.Itree.below acc)

(* [seed] and [order] as in [Itree.build]: the crossing list shuffled
   in place, or left in lexicographic order *)
let build ?(seed = 0x17EEL) ?(order = `Shuffled) dom fns =
  let root = fresh_leaf (Region.of_domain dom) [] in
  let pairs = Array.copy (Crossings.enumerate dom fns).Crossings.pairs in
  (match order with
  | `Shuffled -> Aqv_util.Prng.shuffle (Aqv_util.Prng.create seed) pairs
  | `Lexicographic -> ());
  let counts = ref (1, 0) in
  let shadow = ref (SLeaf root) in
  Array.iter (insert_1d counts shadow) pairs;
  let lower nd = fst (Option.get (Region.interval_bounds nd.Itree.region)) in
  let leaves = Array.of_list (collect root []) in
  Array.stable_sort (fun a b -> Q.compare (lower a) (lower b)) leaves;
  Array.iteri
    (fun id nd ->
      match nd.Itree.kind with Itree.Leaf lf -> lf.Itree.id <- id | Itree.Inode _ -> assert false)
    leaves;
  let nodes, intersections = !counts in
  { root; leaves; intersections; nodes }

(* leaf depths, root at depth 0 *)
let leaf_depths t =
  let rec go node d acc =
    match node.Itree.kind with
    | Itree.Leaf _ -> d :: acc
    | Itree.Inode n -> go n.Itree.above (d + 1) (go n.Itree.below (d + 1) acc)
  in
  go t.root 0 []

let max_depth t = List.fold_left max 0 (leaf_depths t)

let average_leaf_depth t =
  let ds = leaf_depths t in
  float_of_int (List.fold_left ( + ) 0 ds) /. float_of_int (List.length ds)
