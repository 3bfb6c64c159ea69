module Q = Aqv_num.Rational
module Domain = Aqv_num.Domain
module Linfun = Aqv_num.Linfun
module Metrics = Aqv_util.Metrics
module Pool = Aqv_par.Pool

type pair = { i : int; j : int; diff : Linfun.t; root : Q.t option }
type t = { pairs : pair array; total : int; by_root : int array array }

let count t = Array.length t.pairs

(* the crossing point of a 1-D difference [a x + b]: [-b/a] *)
let root_1d diff = Q.div (Q.neg (Linfun.const diff)) (Linfun.coeff diff 0)

(* The box's 2^(d-1) antipodal corner pairs (c, c̄): c sits at [lo] in
   coordinate 0 and at [lo] or [hi] in each other coordinate as the
   bits of [m] say; c̄ is its mirror image. In 1-D the one pair is
   (lo, hi). *)
let antipodes dom =
  let d = Domain.dim dom in
  List.init
    (1 lsl (d - 1))
    (fun m ->
      let corner mirrored =
        Array.init d (fun k ->
            if (k > 0 && (m lsr (k - 1)) land 1 = 1) <> mirrored then Domain.hi dom k
            else Domain.lo dom k)
      in
      (corner false, corner true))

(* The strict inversions between the order at c and the order at c̄:
   sort by (value at c, value at c̄), then merge-sort that sequence by
   value at c̄, emitting a pair whenever an earlier element is strictly
   greater at c̄. Ties at c are broken by the value at c̄, so an emitted
   pair is also strictly ordered at c; a tie at c̄ never emits, and
   functions parallel along the c–c̄ diagonal keep their order at both
   ends. O(n log n + K) exact comparisons for K inversions. A crossing
   (i, j), i < j, is pushed onto [found] as the int i * n + j so the
   final lexicographic sort is a plain integer sort. *)
let inversions va vb found =
  let n = Array.length va in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> match Q.compare va.(a) va.(b) with 0 -> Q.compare vb.(a) vb.(b) | c -> c)
    order;
  let src = ref order and dst = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let start = ref 0 in
    while !start < n do
      let mid = min (!start + w) n and stop = min (!start + (2 * w)) n in
      let l = ref !start and r = ref mid in
      for k = !start to stop - 1 do
        if !r >= stop || (!l < mid && Q.compare vb.(s.(!l)) vb.(s.(!r)) <= 0) then begin
          d.(k) <- s.(!l);
          incr l
        end
        else begin
          (* the left run is ascending at c̄, so every element still
             pending in it is strictly greater than [b] there *)
          let b = s.(!r) in
          for m = !l to mid - 1 do
            let a = s.(m) in
            found := ((min a b * n) + max a b) :: !found
          done;
          d.(k) <- b;
          incr r
        end
      done;
      start := stop
    done;
    src := d;
    dst := s;
    width := 2 * w
  done

(* A linear difference takes its maximum and minimum over the box at an
   antipodal corner pair, so [f_i - f_j] properly crosses the box —
   [Region.classify]'s strict-interior Split — iff it takes strictly
   opposite signs at some antipodal pair: the crossing set is the union
   of the pairs' inversions. In 1-D that is the single (lo, hi) sweep,
   with no duplicates to remove. *)
let crossing_ids dom fns =
  let n = Array.length fns in
  let found = ref [] in
  List.iter
    (fun (c, c') ->
      let at x = Array.map (fun f -> Linfun.eval f x) fns in
      inversions (at c) (at c') found)
    (antipodes dom);
  List.sort_uniq Int.compare !found |> Array.of_list |> Array.map (fun id -> (id / n, id mod n))

let enumerate ?pool dom fns =
  let ids = crossing_ids dom fns in
  let one_d = Domain.dim dom = 1 in
  let record t =
    let i, j = ids.(t) in
    let diff = Linfun.sub fns.(i) fns.(j) in
    { i; j; diff; root = (if one_d then Some (root_1d diff) else None) }
  in
  let k = Array.length ids in
  let pairs =
    match pool with
    | Some p when Pool.size p > 1 -> Pool.parallel_init p k record
    | _ -> Array.init k record
  in
  (* 1-D: the pair indices sorted by root — stably, so ties keep index
     order — and cut where the root changes; both the I-tree build and
     the sweep walk this one order. The roots are gathered into one
     array first: reached through their pair records, the 705 k roots
     of the read-heavy table sorted in 2.1 s instead of 0.76 s, on cache
     misses. *)
  let by_root =
    if not one_d then [||]
    else begin
      let root = Array.map (fun p -> Option.get p.root) pairs in
      let order = Array.init k Fun.id in
      Array.stable_sort (fun a b -> Q.compare root.(a) root.(b)) order;
      let groups = ref [] and stop = ref k in
      for s = k - 1 downto 0 do
        if s = 0 || not (Q.equal root.(order.(s - 1)) root.(order.(s))) then begin
          groups := Array.sub order s (!stop - s) :: !groups;
          stop := s
        end
      done;
      Array.of_list !groups
    end
  in
  Metrics.add_build_crossings k;
  { pairs; total = k; by_root }
