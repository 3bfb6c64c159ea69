(* Reference crossing enumeration for the identity qchecks: one
   sequential pass over every (i, j), i < j, classifying each pair's
   difference against the domain box with the general
   [Region.classify] (exact simplex in d >= 2, no pool, no corner
   sweep). [Crossings.enumerate] must return the same pairs with
   field-by-field equal records, and the same 1-D root groups. Ticks no
   build counters. *)

module Q = Aqv_num.Rational
module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
module Linfun = Aqv_num.Linfun
open Aqv

let probe ~box ~dim fns i j =
  let diff = Linfun.sub fns.(i) fns.(j) in
  if Linfun.is_zero diff then None
  else
    match Region.classify box diff with
    | Region.Split ->
      let root =
        if dim = 1 then Some (Q.div (Q.neg (Linfun.const diff)) (Linfun.coeff diff 0)) else None
      in
      Some { Crossings.i; j; diff; root }
    | Region.Pos | Region.Neg -> None

let enumerate dom fns =
  let n = Array.length fns in
  let probe = probe ~box:(Region.of_domain dom) ~dim:(Domain.dim dom) fns in
  let kept = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Option.iter (fun p -> kept := p :: !kept) (probe i j)
    done
  done;
  let pairs = Array.of_list (List.rev !kept) in
  (* one group per distinct root, ascending, each listing the indices
     with that root in index order *)
  let indexed = List.mapi (fun k (p : Crossings.pair) -> (k, p.Crossings.root)) (Array.to_list pairs) in
  let by_root =
    List.filter_map snd indexed
    |> List.sort_uniq Q.compare
    |> List.map (fun r ->
           List.filter_map
             (fun (k, r') -> if Option.equal Q.equal r' (Some r) then Some k else None)
             indexed
           |> Array.of_list)
    |> Array.of_list
  in
  { Crossings.pairs; total = Array.length pairs; by_root }
