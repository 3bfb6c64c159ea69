(* Traced runs: per-layer metrics, and the stage accounting printed to
   stderr — set-up, a query and an update split into the self times of
   the calls they made, against the end-to-end figure. *)

open Perfbench_kit

let log fmt = Printf.ksprintf prerr_endline fmt

(* One verified query of the read window: when it was sent (seconds
   into the window), its latency in seconds, and whether it ran in a
   traced slice. *)
type sample = { at : float; lat : float; traced : bool }

let row_line total (label, v) =
  log "    %-34s %12.1f  %5.1f%%" label v (if total > 0. then 100. *. v /. total else 0.)

let print_breakdown ~title ~unit_scale ~unit spans ~root =
  let n, rows = Spans.self_by_name spans ~root in
  if n > 0 then begin
    let rows =
      List.map
        (fun (k, v) ->
          ((if k = root then k ^ " (self)" else k), v *. unit_scale /. float_of_int n))
        rows
    in
    let total = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
    log "  %s: mean %.1f %s over %d, as self times:" title total unit n;
    List.iter (row_line total) rows
  end

let per_layer ~workload ~rec_ ~base ~win_samples ~setup_times ~owner_metrics ~replay
    ~cache_hit_ratio ~bytes_out_per_query ~republish_ms =
  let load suffix =
    let p = Filename.concat base ("spans" ^ suffix) in
    if Sys.file_exists p then Spans.load p else [||]
  in
  let spans =
    Spans.merge (Spans.merge (Spans.to_array rec_) (load ".owner")) (load ".server")
  in
  Spans.save (Filename.concat base "spans.tsv") spans;
  let replayed = replay () in
  let get name ms =
    match List.assoc_opt name ms with Some v -> v | None -> failwith ("missing " ^ name)
  in
  let queries =
    Array.fold_left (fun n s -> if s.Spans.name = "query" then n + 1 else n) 0 spans
  in
  (* per query: time in spans [name] whose parent is named [parent], and
     how many there were *)
  let per_query ~parent name =
    let t = ref 0. and c = ref 0 in
    Array.iter
      (fun s ->
        if s.Spans.name = name && s.Spans.parent <> Spans.no_parent
           && spans.(s.Spans.parent).Spans.name = parent
        then begin
          incr c;
          t := !t +. (s.Spans.stop -. s.Spans.start)
        end)
      spans;
    let q = float_of_int (max 1 queries) in
    (!t *. 1e6 /. q, float_of_int !c /. q)
  in
  let ask, _ = per_query ~parent:"query" "roundtrip.ask" in
  let decode_req = get "protocol.decode_request_us" replayed
  and answer = get "server.answer_us" replayed
  and encode = get "protocol.encode_reply_us" replayed
  and decode_reply = get "protocol.decode_reply_us" replayed in
  (* the engine decodes every request; a response-cache hit skips the
     answer and its encoding *)
  let miss = 1. -. cache_hit_ratio in
  let server_us = decode_req +. (miss *. (answer +. encode)) in
  let wait = ask -. server_us -. decode_reply in
  let verify_us, _ = per_query ~parent:"query" "client.verify" in
  let sig_us, sig_ops = per_query ~parent:"client.verify" "signer.verify" in
  (* the first second warms the caches; it is left out of both sides *)
  let mean_of traced =
    let xs =
      List.filter_map
        (fun s -> if s.traced = traced && s.at >= 1. then Some s.lat else None)
        (Array.to_list win_samples)
    in
    if xs = [] then 0. else Measure.mean (Array.of_list xs) *. 1e6
  in
  let query_overhead = mean_of true -. mean_of false in
  let setup_overhead = setup_times.(Array.length setup_times - 1) -. setup_times.(0) in
  (* ------------------------- accounting ---------------------------- *)
  log "%s: stage self times (traced run; spans in %s)" workload
    (Filename.concat base "spans.tsv");
  print_breakdown ~title:"setup_s" ~unit_scale:1. ~unit:"s" spans ~root:"setup";
  let query_mean =
    Array.fold_left
      (fun a s -> if s.Spans.name = "query" then a +. (s.Spans.stop -. s.Spans.start) else a)
      0. spans
    *. 1e6 /. float_of_int (max 1 queries)
  in
  log "  tracing overhead: %.1f us per query (mean %.1f traced - %.1f untraced, after 1 s)"
    query_overhead (mean_of true) (mean_of false);
  log "  query latency: mean %.1f us over %d traced queries, as self times:" query_mean queries;
  List.iter (row_line query_mean)
    [
      ("roundtrip.wait (transport, engine)", wait);
      ("protocol.decode_request", decode_req);
      (Printf.sprintf "server.answer x miss %.3f" miss, miss *. answer);
      (Printf.sprintf "protocol.encode_reply x miss %.3f" miss, miss *. encode);
      ("protocol.decode_reply", decode_reply);
      ("client.verify (self)", verify_us -. sig_us);
      ("signer.verify", sig_us);
      ("query (self)", query_mean -. ask -. verify_us);
    ];
  print_breakdown ~title:"republish (due -> ack)" ~unit_scale:1000. ~unit:"ms" spans
    ~root:"republish";
  log "    of roundtrip.ask: ifmh.apply_delta %.1f ms, store.append %.1f ms (timed apart)"
    (get "ifmh.apply_delta_ms" owner_metrics) (get "store.append_ms" owner_metrics);
  log "  republish_ms samples: %s"
    (String.concat " " (List.map (Printf.sprintf "%.1f") republish_ms));
  log "  store: Store.default_policy (compact at 256 frames / 64 MiB), every append fsync'd";
  let server_spans = load ".server" in
  let open_dir_ms =
    Array.fold_left
      (fun a s ->
        if s.Spans.name = "store.open_dir" then (s.Spans.stop -. s.Spans.start) *. 1000. else a)
      0. server_spans
  in
  let values =
    owner_metrics @ replayed
    @ [
        ("store.open_dir_ms", open_dir_ms);
        ("engine.cache_hit_ratio", cache_hit_ratio);
        ("engine.bytes_out_per_query", bytes_out_per_query);
        ("roundtrip.ask_us", ask);
        ("roundtrip.wait_us", wait);
        ("client.verify_us", verify_us);
        ("signer.verify_us", sig_us);
        ("signer.verify_ops", sig_ops);
        ("trace.query_overhead_us", query_overhead);
        ("trace.setup_overhead_s", setup_overhead);
      ]
  in
  Catalog.select Catalog.per_layer values
