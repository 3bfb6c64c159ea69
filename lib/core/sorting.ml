module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Pvec = Aqv_util.Pvec
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Table = Aqv_db.Table

type leaf_lists = { order : int Pvec.t; fmh : Mht.t }
type t = { entries : leaf_lists array; records : int }

let leaf_count t = Array.length t.entries

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

let fmh_of_order rdig order =
  let n = Array.length order in
  let digests = Array.make (n + 2) Record.min_sentinel_digest in
  digests.(n + 1) <- Record.max_sentinel_digest;
  for k = 0 to n - 1 do
    digests.(k + 1) <- rdig.(order.(k))
  done;
  Mht.of_digests digests

let leaf t id = t.entries.(id)
let fmh_root t id = Mht.root t.entries.(id).fmh

(* ------------------------- 1-D sweep build ------------------------- *)

let build_1d ~crossings table itree rdig =
  let fns = Table.functions table in
  let n = Array.length fns in
  let dom = Table.domain table in
  let dlo = Aqv_num.Domain.lo dom 0 and dhi = Aqv_num.Domain.hi dom 0 in
  (* crossing events strictly inside the domain, keyed by root — and in
     1-D a pair crosses the box iff its root lies strictly inside
     (Region.classify on an interval), so the events are exactly the
     enumerator's crossing set: the sweep's own Θ(n²) pair walk is
     gone. The strict-inequality filter is kept as a guard only. *)
  let events =
    Array.to_seq crossings.Crossings.pairs
    |> Seq.filter_map (fun (p : Crossings.pair) ->
           match p.Crossings.root with
           | Some root when Q.compare dlo root < 0 && Q.compare root dhi < 0 ->
             Some (root, p.Crossings.i, p.Crossings.j)
           | _ -> None)
    |> Array.of_seq
  in
  if Array.length events <> Crossings.count crossings then
    invalid_arg "Sorting.build: crossing set inconsistent with 1-D roots";
  Array.sort (fun (a, _, _) (b, _, _) -> Q.compare a b) events;
  (* distinct boundaries: the events are sorted, so one linear scan
     dedups them — re-sorting through List.sort_uniq would pay a second
     Θ(m log m) pass of exact-rational comparisons *)
  let boundaries =
    let m = Array.length events in
    if m = 0 then [||]
    else begin
      let distinct = ref 1 in
      for k = 1 to m - 1 do
        let p, _, _ = events.(k - 1) and r, _, _ = events.(k) in
        if Q.compare p r <> 0 then incr distinct
      done;
      let first, _, _ = events.(0) in
      let out = Array.make !distinct first in
      let w = ref 0 in
      for k = 1 to m - 1 do
        let p, _, _ = events.(k - 1) and r, _, _ = events.(k) in
        if Q.compare p r <> 0 then begin
          incr w;
          out.(!w) <- r
        end
      done;
      out
    end
  in
  let ncells = Array.length boundaries + 1 in
  if ncells <> Itree.leaf_count itree then
    invalid_arg "Sorting.build: tree/sweep cell mismatch";
  let cell_sample c =
    let lo = if c = 0 then dlo else boundaries.(c - 1) in
    let hi = if c = ncells - 1 then dhi else boundaries.(c) in
    [| Q.average lo hi |]
  in
  let entries = Array.make ncells None in
  let stash c order fmh = entries.(c) <- Some { order; fmh } in
  (* initial cell: the only full FMH build of the sweep — every later
     cell is one [Mht.set_many] over its neighbour, rehashing the union
     of its moved leaves' root paths: O(g + log n) node hashes for a
     crossing group of size g, about log n + 1 for a single swap *)
  let order0 = sorted_positions fns (cell_sample 0) in
  let pos = Array.make n 0 in
  Array.iteri (fun idx p -> pos.(p) <- idx) order0;
  let cur_order = Array.copy order0 in
  let pv = ref (Pvec.of_array order0) in
  let tree = ref (fmh_of_order rdig order0) in
  stash 0 !pv !tree;
  (* sweep: process events grouped by boundary *)
  let m = Array.length events in
  let e = ref 0 in
  for c = 1 to ncells - 1 do
    let x = boundaries.(c - 1) in
    (* records involved in crossings at x *)
    let involved = Hashtbl.create 8 in
    while
      !e < m
      && (let r, _, _ = events.(!e) in
          Q.equal r x)
    do
      let _, i, j = events.(!e) in
      Hashtbl.replace involved i ();
      Hashtbl.replace involved j ();
      incr e
    done;
    (* group involved records by their (equal) score at x: each group
       occupies contiguous positions and reorders there *)
    let groups = Hashtbl.create 8 in
    Hashtbl.iter
      (fun p () ->
        let v = Q.to_string (Linfun.eval fns.(p) [| x |]) in
        Hashtbl.replace groups v (p :: Option.value ~default:[] (Hashtbl.find_opt groups v)))
      involved;
    let sample = cell_sample c in
    (* the boundary's FMH leaf changes, applied in one descent below *)
    let changes = ref [] in
    Hashtbl.iter
      (fun _ members ->
        let members = Array.of_list members in
        (* current positions of the group: must be contiguous *)
        let positions = Array.map (fun p -> pos.(p)) members in
        Array.sort compare positions;
        let base = positions.(0) in
        for k = 1 to Array.length positions - 1 do
          if positions.(k) <> base + k then
            invalid_arg "Sorting.build: crossing group not contiguous"
        done;
        (* new order inside the group: by score at the next cell's
           sample, ties by position *)
        let score = Array.map (fun p -> Linfun.eval fns.(p) sample) members in
        let by = Array.init (Array.length members) Fun.id in
        Array.sort
          (fun a b ->
            let cmp = Q.compare score.(a) score.(b) in
            if cmp <> 0 then cmp else compare members.(a) members.(b))
          by;
        Array.iteri
          (fun slot bidx ->
            let p = members.(bidx) in
            let target = base + slot in
            if cur_order.(target) <> p then begin
              cur_order.(target) <- p;
              pos.(p) <- target;
              pv := Pvec.set !pv target p;
              changes := (target + 1, rdig.(p)) :: !changes
            end
            else pos.(p) <- target)
          by)
      groups;
    (* adjacent moved positions share their root paths above their
       lowest common ancestor: one descent hashes that union once *)
    tree := Mht.set_many !tree (List.sort (fun (a, _) (b, _) -> compare a b) !changes);
    stash c !pv !tree
  done;
  Array.map Option.get entries

(* ------------------------ general-d build -------------------------- *)

(* Each leaf is a pure function of (functions, region, rdig), so the
   map fans out over the pool; results land by leaf id, making the
   entry array bit-identical to a sequential build. *)
let build_nd ~pool table itree rdig =
  let fns = Table.functions table in
  Aqv_par.Pool.parallel_map pool
    (fun (node : Itree.node) ->
      let order = sorted_positions fns (Aqv_num.Region.interior_point node.Itree.region) in
      { order = Pvec.of_array order; fmh = fmh_of_order rdig order })
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
  let entries =
    if Table.dim table = 1 then begin
      (* the sweep consumes the crossing enumerator's crossing set;
         callers that enumerated up front (Ifmh.build_structure) share
         that one pass with the I-tree insertion *)
      let crossings =
        match crossings with
        | Some c -> c
        | None -> Crossings.enumerate ~pool (Table.domain table) (Table.functions table)
      in
      build_1d ~crossings table itree rdig
    end
    else build_nd ~pool table itree rdig
  in
  { entries; records = Table.size table }
