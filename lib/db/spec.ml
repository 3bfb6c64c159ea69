module Json = Aqv_util.Json

type scheme = One | Multi

type mix = { topk : float; range : float; knn : float }

type slo = {
  min_throughput_rps : float option;
  p50_us_max : int option;
  p99_us_max : int option;
  p999_us_max : int option;
  min_post_republish_frag_hit_rate : float option;
}

type t = {
  name : string;
  seed : int;
  records : int;
  dims : int;
  intercept_range : int;
  scheme : scheme;
  clients : int;
  requests_per_client : int;
  hot_set : int;
  zipf_theta : float;
  k_max : int;
  mix : mix;
  republishes : int;
  republish_rate_hz : float;
  replicas : int;
  slo : slo;
}

type error =
  | Json_error of string
  | Missing_field of string
  | Bad_field of string * string
  | Unknown_field of string
  | Unknown_query_type of string
  | Mix_not_normalized of float

let error_to_string = function
  | Json_error m -> m
  | Missing_field f -> Printf.sprintf "missing required field \"%s\"" f
  | Bad_field (f, why) -> Printf.sprintf "field \"%s\": %s" f why
  | Unknown_field f -> Printf.sprintf "unknown field \"%s\"" f
  | Unknown_query_type q ->
    Printf.sprintf "unknown query type \"%s\" in mix (expected topk/range/knn)" q
  | Mix_not_normalized s ->
    Printf.sprintf "mix ratios sum to %.9g, expected 1" s

let max_records = 100_000

(* ---------------------------- validation ---------------------------- *)

let ( let* ) = Result.bind

let check cond field why = if cond then Ok () else Error (Bad_field (field, why))

let validate (s : t) =
  let* () = check (String.length s.name > 0) "name" "must be non-empty" in
  let* () =
    check
      (s.records >= 1 && s.records <= max_records)
      "records"
      (Printf.sprintf "must be in [1, %d]" max_records)
  in
  let* () = check (s.dims >= 1 && s.dims <= 4) "dims" "must be in [1, 4]" in
  let* () =
    check
      (s.intercept_range >= 1 && s.intercept_range <= 1_000_000_000)
      "intercept_range"
      "must be in [1, 1000000000]"
  in
  let* () = check (s.clients >= 1 && s.clients <= 64) "clients" "must be in [1, 64]" in
  let* () =
    check (s.requests_per_client >= 1) "requests_per_client" "must be >= 1"
  in
  let* () = check (s.hot_set >= 1 && s.hot_set <= 4096) "hot_set" "must be in [1, 4096]" in
  let* () =
    check
      (Float.is_finite s.zipf_theta && s.zipf_theta >= 0. && s.zipf_theta <= 5.)
      "zipf_theta" "must be in [0, 5]"
  in
  let* () =
    check (s.k_max >= 1 && s.k_max <= s.records) "k_max" "must be in [1, records]"
  in
  let* () =
    check
      (s.mix.topk >= 0. && s.mix.range >= 0. && s.mix.knn >= 0.)
      "mix" "ratios must be non-negative"
  in
  let sum = s.mix.topk +. s.mix.range +. s.mix.knn in
  let* () =
    if Float.abs (sum -. 1.) <= 1e-9 then Ok () else Error (Mix_not_normalized sum)
  in
  let* () = check (s.republishes >= 0) "republishes" "must be >= 0" in
  let* () =
    check
      (s.republishes = 0 || s.republish_rate_hz > 0.)
      "republish_rate_hz" "must be > 0 when republishes > 0"
  in
  let* () =
    check
      (Float.is_finite s.republish_rate_hz && s.republish_rate_hz >= 0.)
      "republish_rate_hz" "must be finite and >= 0"
  in
  let* () = check (s.replicas >= 1 && s.replicas <= 8) "replicas" "must be in [1, 8]" in
  let* () =
    check
      (s.slo.min_post_republish_frag_hit_rate = None)
      "slo.min_post_republish_frag_hit_rate"
      "is retired: the VO fragment cache it measured is gone"
  in
  let* () =
    check
      (s.slo.min_throughput_rps <> None || s.slo.p50_us_max <> None
     || s.slo.p99_us_max <> None || s.slo.p999_us_max <> None)
      "slo" "must declare at least one bound"
  in
  Ok s

(* ------------------------------ parsing ----------------------------- *)

(* Field extraction over an association list, consuming keys so leftovers
   can be reported as Unknown_field. *)
type fields = { mutable assoc : (string * Json.t) list }

let take fields key =
  match List.assoc_opt key fields.assoc with
  | None -> None
  | Some v ->
    fields.assoc <- List.remove_assoc key fields.assoc;
    Some v

let req fields key conv what =
  match take fields key with
  | None -> Error (Missing_field key)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Bad_field (key, "expected " ^ what)))

let opt fields key default conv what =
  match take fields key with
  | None -> Ok default
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Bad_field (key, "expected " ^ what)))

let no_leftovers ~where fields =
  match fields.assoc with
  | [] -> Ok ()
  | (k, _) :: _ ->
    if where = "mix" then Error (Unknown_query_type k) else Error (Unknown_field k)

let parse_scheme = function
  | Json.String "one" -> Some One
  | Json.String "multi" -> Some Multi
  | _ -> None

let parse_mix v =
  match Json.to_obj v with
  | None -> Error (Bad_field ("mix", "expected an object of ratios"))
  | Some assoc ->
    let fields = { assoc } in
    let* topk = opt fields "topk" 0. Json.to_float "a number" in
    let* range = opt fields "range" 0. Json.to_float "a number" in
    let* knn = opt fields "knn" 0. Json.to_float "a number" in
    let* () = no_leftovers ~where:"mix" fields in
    Ok { topk; range; knn }

let parse_slo v =
  match Json.to_obj v with
  | None -> Error (Bad_field ("slo", "expected an object of bounds"))
  | Some assoc ->
    let fields = { assoc } in
    let opt_of key conv what =
      match take fields key with
      | None -> Ok None
      | Some v -> (
        match conv v with
        | Some x -> Ok (Some x)
        | None -> Error (Bad_field ("slo." ^ key, "expected " ^ what)))
    in
    let* min_throughput_rps = opt_of "min_throughput_rps" Json.to_float "a number" in
    let* p50_us_max = opt_of "p50_us_max" Json.to_int "an integer" in
    let* p99_us_max = opt_of "p99_us_max" Json.to_int "an integer" in
    let* p999_us_max = opt_of "p999_us_max" Json.to_int "an integer" in
    let* () =
      match fields.assoc with
      | [] -> Ok ()
      | (k, _) :: _ -> Error (Unknown_field ("slo." ^ k))
    in
    Ok
      {
        min_throughput_rps;
        p50_us_max;
        p99_us_max;
        p999_us_max;
        min_post_republish_frag_hit_rate = None;
      }

let of_json json =
  match Json.to_obj json with
  | None -> Error (Json_error "Spec: top level must be an object")
  | Some assoc ->
    let fields = { assoc } in
    let* name = req fields "name" Json.to_str "a string" in
    let* seed = req fields "seed" Json.to_int "an integer" in
    let* records = req fields "records" Json.to_int "an integer" in
    let* dims = opt fields "dims" 1 Json.to_int "an integer" in
    let* intercept_range = opt fields "intercept_range" 1000 Json.to_int "an integer" in
    let* scheme = opt fields "scheme" Multi parse_scheme "\"one\" or \"multi\"" in
    let* clients = req fields "clients" Json.to_int "an integer" in
    let* requests_per_client =
      req fields "requests_per_client" Json.to_int "an integer"
    in
    let* hot_set = opt fields "hot_set" 16 Json.to_int "an integer" in
    let* zipf_theta = opt fields "zipf_theta" 0.99 Json.to_float "a number" in
    let* k_max = opt fields "k_max" 8 Json.to_int "an integer" in
    let* mix =
      match take fields "mix" with
      | None -> Error (Missing_field "mix")
      | Some v -> parse_mix v
    in
    let* republishes = opt fields "republishes" 0 Json.to_int "an integer" in
    let* republish_rate_hz =
      opt fields "republish_rate_hz" 0. Json.to_float "a number"
    in
    let* replicas = opt fields "replicas" 1 Json.to_int "an integer" in
    let* slo =
      match take fields "slo" with
      | None -> Error (Missing_field "slo")
      | Some v -> parse_slo v
    in
    let* () = no_leftovers ~where:"spec" fields in
    validate
      {
        name;
        seed;
        records;
        dims;
        intercept_range;
        scheme;
        clients;
        requests_per_client;
        hot_set;
        zipf_theta;
        k_max;
        mix;
        republishes;
        republish_rate_hz;
        replicas;
        slo;
      }

let of_string s =
  match Json.parse s with
  | Error m -> Error (Json_error m)
  | Ok json -> of_json json

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error m -> Error (Json_error m)

let to_json (s : t) =
  let slo_fields =
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> (k, v)) v)
      [
        ("min_throughput_rps", Option.map (fun x -> Json.Float x) s.slo.min_throughput_rps);
        ("p50_us_max", Option.map (fun x -> Json.Int x) s.slo.p50_us_max);
        ("p99_us_max", Option.map (fun x -> Json.Int x) s.slo.p99_us_max);
        ("p999_us_max", Option.map (fun x -> Json.Int x) s.slo.p999_us_max);
      ]
  in
  Json.Obj
    [
      ("name", Json.String s.name);
      ("seed", Json.Int s.seed);
      ("records", Json.Int s.records);
      ("dims", Json.Int s.dims);
      ("intercept_range", Json.Int s.intercept_range);
      ("scheme", Json.String (match s.scheme with One -> "one" | Multi -> "multi"));
      ("clients", Json.Int s.clients);
      ("requests_per_client", Json.Int s.requests_per_client);
      ("hot_set", Json.Int s.hot_set);
      ("zipf_theta", Json.Float s.zipf_theta);
      ("k_max", Json.Int s.k_max);
      ( "mix",
        Json.Obj
          [
            ("topk", Json.Float s.mix.topk);
            ("range", Json.Float s.mix.range);
            ("knn", Json.Float s.mix.knn);
          ] );
      ("republishes", Json.Int s.republishes);
      ("republish_rate_hz", Json.Float s.republish_rate_hz);
      ("replicas", Json.Int s.replicas);
      ("slo", Json.Obj slo_fields);
    ]

(* ------------------------------ SLO gate ---------------------------- *)

type measured = {
  throughput_rps : float;
  p50_us : int;
  p99_us : int;
  p999_us : int;
}

type slo_row = { bound : string; limit : float; actual : float; ok : bool }

let evaluate_slo (slo : slo) (m : measured) =
  let ceiling bound limit actual =
    Option.map
      (fun l ->
        { bound; limit = float_of_int l; actual = float_of_int actual; ok = actual <= l })
      limit
  in
  List.filter_map Fun.id
    [
      Option.map
        (fun l ->
          let actual = m.throughput_rps in
          { bound = "min_throughput_rps"; limit = l; actual; ok = actual >= l })
        slo.min_throughput_rps;
      ceiling "p50_us_max" slo.p50_us_max m.p50_us;
      ceiling "p99_us_max" slo.p99_us_max m.p99_us;
      ceiling "p999_us_max" slo.p999_us_max m.p999_us;
    ]
