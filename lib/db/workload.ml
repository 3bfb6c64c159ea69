module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng

let distinct_vectors ~n ~gen =
  let seen = Hashtbl.create n in
  let rec fresh () =
    let v = gen () in
    if Hashtbl.mem seen v then fresh ()
    else begin
      Hashtbl.add seen v ();
      v
    end
  in
  List.init n (fun _ -> fresh ())

let lines_1d ?(slope_range = 1000) ?(intercept_range = 1000) ~n rng =
  if n < 1 then invalid_arg "Workload.lines_1d";
  let gen () = (Prng.int_in rng (-slope_range) slope_range, Prng.int_in rng 0 intercept_range) in
  let pairs = distinct_vectors ~n ~gen in
  let records =
    List.mapi
      (fun i (a, b) ->
        Record.make ~id:i ~attrs:[| Q.of_int a; Q.of_int b |]
          ~payload:(Printf.sprintf "line-%d" i) ())
      pairs
  in
  Table.make ~records ~template:Template.affine_1d
    ~domain:(Aqv_num.Domain.of_ints [ (0, 1) ])

let scored ?(attr_range = 100) ~n ~dims rng =
  if n < 1 || dims < 1 then invalid_arg "Workload.scored";
  let gen () = List.init dims (fun _ -> Prng.int_in rng 0 attr_range) in
  let vectors = distinct_vectors ~n ~gen in
  let records =
    List.mapi
      (fun i attrs ->
        Record.make ~id:i
          ~attrs:(Array.of_list (List.map Q.of_int attrs))
          ~payload:(Printf.sprintf "rec-%d" i) ())
      vectors
  in
  Table.make ~records
    ~template:(Template.linear_weights ~dims)
    ~domain:(Aqv_num.Domain.unit_box dims)

let weight_denominator = 1009

let weight_point table rng =
  let dom = Table.domain table in
  let d = Aqv_num.Domain.dim dom in
  Array.init d (fun i ->
      let lo = Aqv_num.Domain.lo dom i and hi = Aqv_num.Domain.hi dom i in
      let t = Q.of_ints (Prng.int_in rng 1 (weight_denominator - 1)) weight_denominator in
      (* lo + t * (hi - lo), strictly inside the box *)
      Q.add lo (Q.mul t (Q.sub hi lo)))

let scores_at table x =
  let fns = Table.functions table in
  let scored = Array.mapi (fun i f -> (i, Aqv_num.Linfun.eval f x)) fns in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = Q.compare a b in
      if c <> 0 then c else compare i j)
    scored;
  scored

(* ----------------------- zipfian popularity ------------------------ *)

module Zipf = struct
  (* Cumulative weights 1/r^theta over ranks 1..n. Floats are fine
     here: the sampler is deterministic given the Prng stream, and no
     exactness property depends on the weights themselves. *)
  type t = { cum : float array }

  let create ~n ~theta =
    if n < 1 then invalid_arg "Workload.Zipf.create";
    if not (Float.is_finite theta) || theta < 0. then
      invalid_arg "Workload.Zipf.create: theta";
    let cum = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
      cum.(i) <- !acc
    done;
    { cum }

  let sample t rng =
    let n = Array.length t.cum in
    let u = Prng.float rng t.cum.(n - 1) in
    (* smallest rank whose cumulative weight exceeds u *)
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.cum.(mid) > u then go lo mid else go (mid + 1) hi
    in
    go 0 (n - 1)
end

(* -------------------------- trace driver ---------------------------- *)

let table_of_spec (spec : Spec.t) =
  let rng = Prng.create (Int64.of_int spec.Spec.seed) in
  if spec.Spec.dims = 1 then
    lines_1d ~intercept_range:spec.Spec.intercept_range ~n:spec.Spec.records rng
  else scored ~n:spec.Spec.records ~dims:spec.Spec.dims rng

module Trace = struct
  type op =
    | Op_top_k of { x : Q.t array; k : int }
    | Op_range of { x : Q.t array; l : Q.t; u : Q.t }
    | Op_knn of { x : Q.t array; k : int; y : Q.t }

  type t = {
    hot : Q.t array array;
    hot_hits : int array;  (* realized zipf popularity, by rank *)
    per_client : op array array;
    republishes : (int * Q.t array) array;
    sha256_hex : string;
  }

  (* Score-scale parameters for range bounds and KNN targets, keyed by
     the table family the spec selects: univariate lines score in
     roughly [-1000, s + 1000] over x in (0, 1) (slopes up to +-1000,
     intercepts up to the spec's [intercept_range] s, default 1000);
     scored records in [0, 100 * dims]. The 1-D bounds scale linearly
     with s — at the default they reduce to the historical constants
     ((0, 400), (50, 400), (0, 1000)), keeping every checked-in trace
     bit-identical. *)
  let scale_params ~dims ~intercept_range =
    if dims = 1 then
      let s = intercept_range in
      ((0, 2 * s / 5), (s / 20, 2 * s / 5), (0, s))
    else ((0, 40 * dims), (5 * dims, 40 * dims), (0, 50 * dims))

  (* Stream derivation offsets: each consumer gets its own Prng seeded
     from (spec seed, role) so traces are independent of scheduling and
     of each other. Client i uses offset i, so these start high. *)
  let hot_stream_offset = 100_003
  let republish_stream_offset = 100_999

  let client_rng (spec : Spec.t) i =
    Prng.create (Int64.of_int ((spec.Spec.seed * 1_000_003) + i))

  let gen_op (spec : Spec.t) ~dims hot hits zipf rng =
    let (range_lo, range_hi), (width_lo, width_hi), (y_lo, y_hi) =
      scale_params ~dims ~intercept_range:spec.Spec.intercept_range
    in
    let rank = Zipf.sample zipf rng in
    hits.(rank) <- hits.(rank) + 1;
    let x = hot.(rank) in
    let u = Prng.float rng 1. in
    if u < spec.Spec.mix.Spec.topk then
      Op_top_k { x; k = 1 + Prng.int rng spec.Spec.k_max }
    else if u < spec.Spec.mix.Spec.topk +. spec.Spec.mix.Spec.range then begin
      let l = Q.of_int (Prng.int_in rng range_lo range_hi) in
      let w = Q.of_int (Prng.int_in rng width_lo width_hi) in
      Op_range { x; l; u = Q.add l w }
    end
    else
      Op_knn
        {
          x;
          k = 1 + Prng.int rng spec.Spec.k_max;
          y = Q.of_int (Prng.int_in rng y_lo y_hi);
        }

  let encode_op w = function
    | Op_top_k { x; k } ->
      Aqv_util.Wire.u8 w 1;
      Aqv_util.Wire.list w (Q.encode w) (Array.to_list x);
      Aqv_util.Wire.varint w k
    | Op_range { x; l; u } ->
      Aqv_util.Wire.u8 w 2;
      Aqv_util.Wire.list w (Q.encode w) (Array.to_list x);
      Q.encode w l;
      Q.encode w u
    | Op_knn { x; k; y } ->
      Aqv_util.Wire.u8 w 3;
      Aqv_util.Wire.list w (Q.encode w) (Array.to_list x);
      Aqv_util.Wire.varint w k;
      Q.encode w y

  let encode w t =
    Aqv_util.Wire.varint w (Array.length t.per_client);
    Array.iter
      (fun ops ->
        Aqv_util.Wire.varint w (Array.length ops);
        Array.iter (encode_op w) ops)
      t.per_client;
    Aqv_util.Wire.varint w (Array.length t.republishes);
    Array.iter
      (fun (id, attrs) ->
        Aqv_util.Wire.varint w id;
        Aqv_util.Wire.list w (Q.encode w) (Array.to_list attrs))
      t.republishes

  let to_bytes t =
    let w = Aqv_util.Wire.writer () in
    encode w t;
    Aqv_util.Wire.contents w

  let generate (spec : Spec.t) table =
    let dims = Table.dim table in
    let hot_rng =
      Prng.create (Int64.of_int ((spec.Spec.seed * 1_000_003) + hot_stream_offset))
    in
    let hot = Array.init spec.Spec.hot_set (fun _ -> weight_point table hot_rng) in
    let hot_hits = Array.make spec.Spec.hot_set 0 in
    let zipf = Zipf.create ~n:spec.Spec.hot_set ~theta:spec.Spec.zipf_theta in
    let per_client =
      Array.init spec.Spec.clients (fun i ->
          let rng = client_rng spec i in
          Array.init spec.Spec.requests_per_client (fun _ ->
              gen_op spec ~dims hot hot_hits zipf rng))
    in
    let repub_rng =
      Prng.create
        (Int64.of_int ((spec.Spec.seed * 1_000_003) + republish_stream_offset))
    in
    let n_attrs = if dims = 1 then 2 else dims in
    let republishes =
      Array.init spec.Spec.republishes (fun _ ->
          let id = Prng.int repub_rng spec.Spec.records in
          let attrs =
            if dims = 1 then
              [|
                Q.of_int (Prng.int_in repub_rng (-1000) 1000);
                Q.of_int (Prng.int_in repub_rng 0 1000);
              |]
            else Array.init n_attrs (fun _ -> Q.of_int (Prng.int_in repub_rng 0 100))
          in
          (id, attrs))
    in
    let t = { hot; hot_hits; per_client; republishes; sha256_hex = "" } in
    { t with sha256_hex = Aqv_crypto.Sha256.hex (Aqv_crypto.Sha256.digest (to_bytes t)) }

  let op_counts t =
    let topk = ref 0 and range = ref 0 and knn = ref 0 in
    Array.iter
      (Array.iter (function
        | Op_top_k _ -> incr topk
        | Op_range _ -> incr range
        | Op_knn _ -> incr knn))
      t.per_client;
    (!topk, !range, !knn)

  let to_json t =
    let topk, range, knn = op_counts t in
    Aqv_util.Json.Obj
      [
        ("sha256", Aqv_util.Json.String t.sha256_hex);
        ("ops", Aqv_util.Json.Int (topk + range + knn));
        ("topk", Aqv_util.Json.Int topk);
        ("range", Aqv_util.Json.Int range);
        ("knn", Aqv_util.Json.Int knn);
        ("republishes", Aqv_util.Json.Int (Array.length t.republishes));
        ( "hot_hits",
          Aqv_util.Json.List
            (Array.to_list (Array.map (fun c -> Aqv_util.Json.Int c) t.hot_hits)) );
      ]
end

let range_for_result_size table ~x ~size =
  let n = Table.size table in
  if size < 1 || size > n then invalid_arg "Workload.range_for_result_size";
  let sorted = scores_at table x in
  (* centre the window in the score list *)
  let start = (n - size) / 2 in
  let lo_score = snd sorted.(start) in
  let hi_score = snd sorted.(start + size - 1) in
  let l =
    if start = 0 then Q.sub lo_score Q.one
    else begin
      let prev = snd sorted.(start - 1) in
      if Q.equal prev lo_score then lo_score (* tie: inclusive boundary *)
      else Q.average prev lo_score
    end
  in
  let u =
    if start + size = n then Q.add hi_score Q.one
    else begin
      let next = snd sorted.(start + size) in
      if Q.equal next hi_score then hi_score
      else Q.average hi_score next
    end
  in
  (l, u)
