module Q = Aqv_num.Rational
module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
module Linfun = Aqv_num.Linfun
module Metrics = Aqv_util.Metrics
module Pool = Aqv_par.Pool

type pair = { i : int; j : int; geom : Memo.pair_geom }

type t = {
  pairs : pair array;
  total : int;
  chunk : int;
  chunks : int;
  peak_live : int;
}

let count t = Array.length t.pairs
let default_chunk = 32768

let is_crossing (g : Memo.pair_geom) =
  match g.Memo.box with Some Region.Split -> true | _ -> false

let fan_out pool len f =
  match pool with
  | Some p when Pool.size p > 1 -> Pool.parallel_init p len f
  | _ -> Array.init len f

(* 1-D: [f_i - f_j] has a root strictly inside (lo, hi) iff it takes
   strictly opposite signs at the two endpoints (a root on a facet
   gives a zero sign, hence no crossing) — exactly [Region.classify]'s
   strict-interior Split. So the crossing pairs are the inversions
   between the functions' order at [lo] and their order at [hi]:
   sort by (value at lo, value at hi), then merge-sort that sequence
   by value at hi, emitting a pair whenever an earlier element is
   strictly greater at hi. Ties at [lo] are broken by the value at
   [hi], so an emitted pair is also strictly ordered at [lo]; a tie at
   [hi] never emits, and parallel lines keep their order at both ends.
   O(n log n + K) exact comparisons for K crossings: no pair outside
   the crossing set is ever looked at. *)
let crossing_ids_1d dom fns =
  let n = Array.length fns in
  let at x f = Q.add (Q.mul (Linfun.coeff f 0) x) (Linfun.const f) in
  let vlo = Array.map (at (Domain.lo dom 0)) fns in
  let vhi = Array.map (at (Domain.hi dom 0)) fns in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> match Q.compare vlo.(a) vlo.(b) with 0 -> Q.compare vhi.(a) vhi.(b) | c -> c)
    order;
  let src = ref order and dst = ref (Array.make n 0) in
  (* a crossing (i, j), i < j, is kept as the int i * n + j so the
     lexicographic sort below is a plain integer sort *)
  let found = ref [] in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let start = ref 0 in
    while !start < n do
      let mid = min (!start + w) n and stop = min (!start + (2 * w)) n in
      let l = ref !start and r = ref mid in
      for k = !start to stop - 1 do
        if !r >= stop || (!l < mid && Q.compare vhi.(s.(!l)) vhi.(s.(!r)) <= 0) then begin
          d.(k) <- s.(!l);
          incr l
        end
        else begin
          (* the left run is ascending at hi, so every element still
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
  done;
  let ids = Array.of_list !found in
  Array.sort Int.compare ids;
  Array.map (fun id -> (id / n, id mod n)) ids

let sweep_1d ~chunk ?memo ?pool dom fns =
  let ids = crossing_ids_1d dom fns in
  let k = Array.length ids in
  (* the expressions [Memo.compute] evaluates, so the geometry is
     bit-identical to a full classification's *)
  let fresh i j =
    let diff = Linfun.sub fns.(i) fns.(j) in
    let a = Linfun.coeff diff 0 and b = Linfun.const diff in
    { Memo.diff; zero = false; box = Some Region.Split; root1 = Some (Q.div (Q.neg b) a) }
  in
  (* a carried entry was registered as a crossing of the same two
     unchanged functions over the same domain, so it is this pair's
     geometry; the memo is consulted read-only, per crossing pair *)
  let geom =
    match memo with
    | None -> fresh
    | Some u -> (
      fun i j -> match Memo.find_geom u ~i ~j with Some g -> g | None -> fresh i j)
  in
  let pairs =
    fan_out pool k (fun t ->
        let i, j = ids.(t) in
        { i; j; geom = geom i j })
  in
  (match memo with
  | Some u -> Array.iter (fun p -> Memo.register_geom u ~i:p.i ~j:p.j p.geom) pairs
  | None -> ());
  { pairs; total = k; chunk; chunks = 0; peak_live = k }

(* d >= 2: flat pair index k in [0, n(n-1)/2) maps to the k-th (i, j),
   i < j, in lexicographic order. The probe never inverts the
   triangular formula: it keeps a running (i, j) cursor and advances it
   chunk by chunk, so only one chunk of indices is ever live. *)
let probe_chunked ~chunk ?memo ?pool dom fns =
  let n = Array.length fns in
  let total = n * (n - 1) / 2 in
  let box = Region.of_domain dom in
  let dim = Domain.dim dom in
  let fresh i j =
    let g = Memo.compute ~box ~dim fns.(i) fns.(j) in
    if is_crossing g then Some { i; j; geom = g } else None
  in
  let probe =
    match memo with
    | None -> fresh
    | Some u -> (
      fun i j ->
        match Memo.find_geom u ~i ~j with
        | Some g -> if is_crossing g then Some { i; j; geom = g } else None
        | None -> fresh i j)
  in
  (* cursor into the lexicographic pair sequence *)
  let ci = ref 0 and cj = ref 1 in
  let advance () =
    incr cj;
    if !cj >= n then begin
      incr ci;
      cj := !ci + 1
    end
  in
  let is = Array.make (min chunk (max total 1)) 0 in
  let js = Array.make (Array.length is) 0 in
  let kept_rev = ref [] in
  let retained = ref 0 in
  let peak = ref 0 in
  let chunks = ref 0 in
  let remaining = ref total in
  while !remaining > 0 do
    let len = min chunk !remaining in
    for k = 0 to len - 1 do
      is.(k) <- !ci;
      js.(k) <- !cj;
      advance ()
    done;
    (* classification is a pure function of (f_i, f_j, box) — and the
       memo consultation is read-only — so the chunk fans out over the
       pool bit-identically to a sequential pass; results land in flat
       index order either way *)
    let probed = fan_out pool len (fun k -> probe is.(k) js.(k)) in
    (* sequential post-pass: retain crossings, register them for the
       next rebuild. Registration stays off the pool by design. *)
    let kept = ref [] in
    for k = len - 1 downto 0 do
      match probed.(k) with Some p -> kept := p :: !kept | None -> ()
    done;
    (match memo with
    | Some u -> List.iter (fun p -> Memo.register_geom u ~i:p.i ~j:p.j p.geom) !kept
    | None -> ());
    let kept = Array.of_list !kept in
    kept_rev := kept :: !kept_rev;
    retained := !retained + Array.length kept;
    (* live pair records while this chunk was in flight: the chunk
       itself plus everything retained so far *)
    if !retained + len > !peak then peak := !retained + len;
    incr chunks;
    remaining := !remaining - len
  done;
  let pairs = Array.concat (List.rev !kept_rev) in
  { pairs; total; chunk; chunks = !chunks; peak_live = !peak }

let enumerate ?(chunk = default_chunk) ?memo ?pool dom fns =
  if chunk < 1 then invalid_arg "Crossings.enumerate: chunk must be >= 1";
  let t =
    if Domain.dim dom = 1 then sweep_1d ~chunk ?memo ?pool dom fns
    else probe_chunked ~chunk ?memo ?pool dom fns
  in
  Metrics.add_build_pairs_classified t.total;
  Metrics.add_build_pair_chunks t.chunks;
  Metrics.add_build_crossings (count t);
  Metrics.note_build_peak_pairs t.peak_live;
  t
