(* Reference crossing enumeration for the identity qchecks: one
   sequential pass over every (i, j), i < j, classifying each pair with
   the general [Memo.compute] (any dimension, no chunking, no pool, no
   1-D shortcut). [Crossings.enumerate] must return the same pairs with
   field-by-field equal geometry. Ticks no build counters; with [memo]
   it consults and registers like the enumerator's chunked probe. *)

module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
open Aqv

let enumerate ?memo dom fns =
  let n = Array.length fns in
  let total = n * (n - 1) / 2 in
  let box = Region.of_domain dom in
  let dim = Domain.dim dom in
  let kept = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let g =
        match Option.bind memo (fun u -> Memo.find_geom u ~i ~j) with
        | Some g -> g
        | None -> Memo.compute ~box ~dim fns.(i) fns.(j)
      in
      if g.Memo.box = Some Region.Split then begin
        Option.iter (fun u -> Memo.register_geom u ~i ~j g) memo;
        kept := { Crossings.i; j; geom = g } :: !kept
      end
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
