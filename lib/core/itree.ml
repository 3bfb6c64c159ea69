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
  functions : Linfun.t array;
  domain : Aqv_num.Domain.t;
  mutable leaf_nodes : node array;
  mutable intersections : int;
  mutable nodes : int;
}

let root t = t.root
let functions t = t.functions
let domain t = t.domain
let leaf_count t = Array.length t.leaf_nodes
let leaves t = t.leaf_nodes
let node_count t = t.nodes
let intersection_count t = t.intersections

let fresh_leaf region cons = { region; h = ""; kind = Leaf { id = -1; cons } }

(* Insert a crossing pair: split every leaf whose region its hyperplane
   properly crosses. The enumerator retained the pair because it
   crosses the whole domain box, so the root — whose region is the box
   — is known to classify Split without asking again. *)
let insert t ({ i; j; diff; _ } : Crossings.pair) =
  let split_any = ref false in
  let rec go ~known node =
    match (match known with Some c -> c | None -> Region.classify node.region diff) with
    | Region.Pos | Region.Neg -> ()
    | Region.Split ->
      (match node.kind with
      | Inode n ->
        go ~known:None n.above;
        go ~known:None n.below
      | Leaf lf ->
        let region_a =
          match Region.add node.region (Halfspace.above diff) with
          | Some r -> r
          | None -> assert false (* classify said Split *)
        in
        let region_b =
          match Region.add node.region (Halfspace.below diff) with
          | Some r -> r
          | None -> assert false
        in
        let above = fresh_leaf region_a ((i, j, Halfspace.Above) :: lf.cons) in
        let below = fresh_leaf region_b ((i, j, Halfspace.Below) :: lf.cons) in
        node.kind <- Inode { i; j; diff; above; below };
        t.nodes <- t.nodes + 2;
        split_any := true)
  in
  go ~known:(Some Region.Split) t.root;
  if !split_any then t.intersections <- t.intersections + 1

(* 1-D fast insertion. The generic [insert] classifies the pair's
   difference against every visited node's region; on intervals that
   re-derives the pair's root — an exact division — at each node. But
   the 1-D descent only ever asks "is our root left or right of an
   earlier split's root", so a shadow of the tree caching those roots
   answers every step with one comparison. [left]/[right] are interval
   order; which of them is the real node's [above] child depends on the
   slope sign. Reaching a real leaf means the root is strictly inside
   its interval (every comparison on the way down was strict) — exactly
   [Region.classify]'s Split on that leaf — so split it as [insert]
   would, building the identical regions and constraint lists. A root
   equal to an earlier split's stops the descent: the generic walk
   classifies both children Pos/Neg there and splits nothing. *)
type shadow = SLeaf of node | SNode of { r : Q.t; left : shadow ref; right : shadow ref }

let insert_1d t shadow ({ i; j; diff; root } : Crossings.pair) =
  let r = match root with Some r -> r | None -> invalid_arg "Itree.insert_1d: no root" in
  let rec go s =
    match !s with
    | SNode { r = rn; left; right } ->
      let c = Q.compare r rn in
      if c < 0 then go left else if c > 0 then go right
    | SLeaf node ->
      let lf = match node.kind with Leaf lf -> lf | Inode _ -> assert false in
      let region_a =
        match Region.add node.region (Halfspace.above diff) with
        | Some rg -> rg
        | None -> assert false (* the root is strictly inside *)
      in
      let region_b =
        match Region.add node.region (Halfspace.below diff) with
        | Some rg -> rg
        | None -> assert false
      in
      let above = fresh_leaf region_a ((i, j, Halfspace.Above) :: lf.cons) in
      let below = fresh_leaf region_b ((i, j, Halfspace.Below) :: lf.cons) in
      node.kind <- Inode { i; j; diff; above; below };
      t.nodes <- t.nodes + 2;
      t.intersections <- t.intersections + 1;
      let sa = ref (SLeaf above) and sb = ref (SLeaf below) in
      (* above covers the right side of the root iff the slope is positive *)
      let left, right = if Q.sign (Linfun.coeff diff 0) > 0 then (sb, sa) else (sa, sb) in
      s := SNode { r; left; right }
  in
  go shadow

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

let build ?(seed = 0x17EEL) ?(order = `Shuffled) ?crossings dom fns =
  let root = fresh_leaf (Region.of_domain dom) [] in
  let t = { root; functions = fns; domain = dom; leaf_nodes = [||]; intersections = 0; nodes = 1 } in
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
     functions of (functions, domain). *)
  let pairs = Array.copy cr.Crossings.pairs in
  (match order with
  | `Shuffled -> Aqv_util.Prng.shuffle (Aqv_util.Prng.create seed) pairs
  | `Lexicographic -> ());
  if Aqv_num.Domain.dim dom = 1 then Array.iter (insert_1d t (ref (SLeaf root))) pairs
  else Array.iter (insert t) pairs;
  let leaf_nodes = Array.of_list (collect_leaves root) in
  (* in 1-D, order leaves left to right so leaf ids align with the
     sweep's subdomain indices *)
  if Aqv_num.Domain.dim dom = 1 then begin
    (* decorate-sort-undecorate: the comparator runs Θ(m log m) times,
       so extract each leaf's lower bound once instead of paying the
       [interval_bounds] match (and its allocation) per comparison *)
    let keyed =
      Array.map
        (fun nd ->
          match Region.interval_bounds nd.region with
          | Some (lo, _) -> (lo, nd)
          | None -> assert false)
        leaf_nodes
    in
    Array.sort (fun (la, _) (lb, _) -> Q.compare la lb) keyed;
    Array.iteri (fun idx (_, nd) -> leaf_nodes.(idx) <- nd) keyed
  end;
  Array.iteri
    (fun idx node -> match node.kind with Leaf lf -> lf.id <- idx | Inode _ -> assert false)
    leaf_nodes;
  t.leaf_nodes <- leaf_nodes;
  t

let leaf_interval t id =
  match Region.interval_bounds t.leaf_nodes.(id).region with
  | Some bounds -> bounds
  | None -> invalid_arg "Itree.leaf_interval: not 1-D"

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
      (* each descent step is one exact-rational sign test *)
      Aqv_util.Metrics.add_locate_sign_tests 1;
      if Q.sign (Linfun.eval n.diff x) >= 0 then go n.above (node :: path)
      else go n.below (node :: path)
  in
  go t.root []
