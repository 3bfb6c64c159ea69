module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Table = Aqv_db.Table

(* One FMH-tree per I-tree leaf, by leaf id *)
type t = int Mht.t array

let leaf_count = Array.length

(* Sort record positions by score at [sample], ties by position. *)
let sorted_positions fns sample =
  let idx = Array.init (Array.length fns) Fun.id in
  let score = Array.map (fun f -> Linfun.eval f sample) fns in
  Array.sort
    (fun a b ->
      let c = Q.compare score.(a) score.(b) in
      if c <> 0 then c else compare a b)
    idx;
  idx

(* Leaf k + 1 commits the record at sorted position k and holds its
   table position; the sentinels at both ends hold -1. *)
let fmh_of_order rdig order =
  let n = Array.length order in
  Mht.init (n + 2) (fun k ->
      if k = 0 then (Record.min_sentinel_digest, -1)
      else if k = n + 1 then (Record.max_sentinel_digest, -1)
      else (rdig.(order.(k - 1)), order.(k - 1)))

let leaf t id = t.(id)
let fmh_root t id = Mht.root t.(id)

(* ---------------------------- 1-D sweep ---------------------------- *)

let sweep_1d crossings table on_cell =
  let fns = Table.functions table in
  let n = Array.length fns in
  let dom = Table.domain table in
  let dlo = Aqv_num.Domain.lo dom 0 and dhi = Aqv_num.Domain.hi dom 0 in
  (* the cell boundaries are the distinct crossing roots, left to right:
     the enumerator's root groups. In 1-D a pair crosses the box iff
     its root lies strictly inside (Region.classify on an interval), so
     the outermost roots are checked as a guard only. *)
  let groups = crossings.Crossings.by_root in
  let root_of group = Option.get crossings.Crossings.pairs.(group.(0)).Crossings.root in
  let boundaries = Array.map root_of groups in
  let nb = Array.length boundaries in
  if
    Array.fold_left (fun acc group -> acc + Array.length group) 0 groups
    <> Crossings.count crossings
    || (nb > 0 && (Q.compare boundaries.(0) dlo <= 0 || Q.compare dhi boundaries.(nb - 1) <= 0))
  then invalid_arg "Sorting.sweep_1d: crossing set inconsistent with 1-D roots";
  let ncells = Array.length boundaries + 1 in
  let cell_bounds c =
    let lo = if c = 0 then dlo else boundaries.(c - 1) in
    let hi = if c = ncells - 1 then dhi else boundaries.(c) in
    (lo, hi)
  in
  let lob, hib = cell_bounds 0 in
  let order = sorted_positions fns [| Q.average lob hib |] in
  let pos = Array.make n 0 in
  Array.iteri (fun idx p -> pos.(p) <- idx) order;
  on_cell 0 ~lob ~hib order ~moved:[];
  for c = 1 to ncells - 1 do
    let x = boundaries.(c - 1) in
    (* positions of the records that cross at x *)
    let involved =
      Array.fold_left
        (fun acc p ->
          let { Crossings.i; j; _ } = crossings.Crossings.pairs.(p) in
          pos.(i) :: pos.(j) :: acc)
        [] groups.(c - 1)
      |> List.sort_uniq compare
      |> List.map (fun q -> (q, Linfun.eval fns.(order.(q)) [| x |]))
    in
    (* the records meeting at one point share their score at x and
       occupy contiguous positions: cut the ascending positions where
       that score changes *)
    let rec groups = function
      | [] -> []
      | (base, v) :: rest ->
        let rec take last = function
          | (q, v') :: rest when Q.equal v v' ->
            if q <> last + 1 then invalid_arg "Sorting.sweep_1d: crossing group not contiguous";
            take q rest
          | rest -> (last, rest)
        in
        let last, rest = take base rest in
        (base, last) :: groups rest
    in
    let lob, hib = cell_bounds c in
    let sample = [| Q.average lob hib |] in
    let moved = ref [] in
    (* each group re-sorts in place by score at the new cell's sample,
       ties by position *)
    List.iter
      (fun (base, last) ->
        let members =
          Array.init (last - base + 1) (fun k ->
              let p = order.(base + k) in
              (Linfun.eval fns.(p) sample, p))
        in
        Array.sort
          (fun (sa, a) (sb, b) ->
            let cmp = Q.compare sa sb in
            if cmp <> 0 then cmp else compare a b)
          members;
        Array.iteri
          (fun k (_, p) ->
            let target = base + k in
            if order.(target) <> p then begin
              order.(target) <- p;
              moved := target :: !moved
            end;
            pos.(p) <- target)
          members)
      (groups involved);
    on_cell c ~lob ~hib order ~moved:(List.rev !moved)
  done;
  ncells

(* Cell 0 is the only full FMH build of the sweep: every later cell is
   one [Mht.set_many] over its neighbour, giving each moved leaf its new
   record's digest and position and rehashing the union of their root
   paths — O(g + log n) node hashes for a crossing
   group of size g, about log n + 1 for a single swap. *)
let build_1d ~crossings table itree rdig =
  let entries = ref [] in
  (* entry c serves leaf id c, so leaf c must be cell c *)
  let mismatch () = invalid_arg "Sorting.build: tree/sweep cell mismatch" in
  let ncells =
    sweep_1d crossings table (fun c ~lob ~hib order ~moved ->
        (if c >= Itree.leaf_count itree then mismatch ()
         else
           match Aqv_num.Region.interval_bounds (Itree.leaves itree).(c).Itree.region with
           | Some (lo, hi) when Q.equal lo lob && Q.equal hi hib -> ()
           | _ -> mismatch ());
        let fmh =
          match !entries with
          | [] -> fmh_of_order rdig order
          | prev :: _ ->
            Mht.set_many prev (List.map (fun k -> (k + 1, rdig.(order.(k)), order.(k))) moved)
        in
        entries := fmh :: !entries)
  in
  if ncells <> Itree.leaf_count itree then mismatch ();
  Array.of_list (List.rev !entries)

(* ------------------------ general-d build -------------------------- *)

(* Each leaf is a pure function of (functions, region, rdig), so the
   map fans out over the pool; results land by leaf id, making the
   entry array bit-identical to a sequential build. *)
let build_nd ~pool table itree rdig =
  let fns = Table.functions table in
  Aqv_par.Pool.parallel_map pool
    (fun (node : Itree.node) ->
      fmh_of_order rdig (sorted_positions fns (Aqv_num.Region.interior_point node.Itree.region)))
    (Itree.leaves itree)

let build ?pool ?rdig ?crossings table itree =
  if Table.size table < 1 then invalid_arg "Sorting.build: empty table";
  let pool = match pool with Some p -> p | None -> Aqv_par.Pool.default () in
  let rdig =
    (* callers that already digested the records (Ifmh.build_structure)
       thread the array through instead of hashing every record twice *)
    match rdig with
    | Some d ->
      if Array.length d <> Table.size table then
        invalid_arg "Sorting.build: digest count mismatch";
      d
    | None -> Aqv_par.Pool.parallel_map pool Record.digest (Table.records table)
  in
  if Table.dim table = 1 then begin
    (* the sweep consumes the crossing enumerator's crossing set;
       callers that enumerated up front (Ifmh.build_structure) share
       that one pass with the I-tree build *)
    let crossings =
      match crossings with
      | Some c -> c
      | None -> Crossings.enumerate ~pool (Table.domain table) (Table.functions table)
    in
    build_1d ~crossings table itree rdig
  end
  else build_nd ~pool table itree rdig
