(* Reference crossing enumeration for the identity qchecks: one
   sequential pass over every (i, j), i < j, classifying each pair with
   the general [Crossings.probe] (any dimension, no chunking, no pool,
   no 1-D shortcut). [Crossings.enumerate] must return the same pairs
   with field-by-field equal records. Ticks no build counters. *)

module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
open Aqv

let enumerate dom fns =
  let n = Array.length fns in
  let total = n * (n - 1) / 2 in
  let probe = Crossings.probe ~box:(Region.of_domain dom) ~dim:(Domain.dim dom) fns in
  let kept = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Option.iter (fun p -> kept := p :: !kept) (probe i j)
    done
  done;
  let pairs = Array.of_list (List.rev !kept) in
  {
    Crossings.pairs;
    total;
    chunk = max total 1;
    chunks = (if total = 0 then 0 else 1);
    peak_live = total;
  }
