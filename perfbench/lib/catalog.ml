(* Every metric a run prints, with its unit, in print order. BENCHMARK.json
   lists the same names; the tests hold the two together. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_qps", "1/s");
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("server_cpu_us_per_query", "us");
    ("client_cpu_us_per_query", "us");
    ("reply_bytes_mean", "B");
    ("snapshot_bytes", "B");
    ("server_rss_mb", "MB");
    ("republish_p50_ms", "ms");
  ]

let per_layer =
  [
    ("crossings.enumerate_ms", "ms");
    ("crossings.pairs_classified", "count");
    ("crossings.count", "count");
    ("itree.build_ms", "ms");
    ("itree.nodes", "count");
    ("sorting.build_ms", "ms");
    ("sorting.subdomains", "count");
    ("signer.sign_ms", "ms");
    ("signer.sign_ops", "count");
    ("ifmh.build_ms", "ms");
    ("ifmh.hash_ops", "count");
    ("store.publish_ms", "ms");
    ("store.open_dir_ms", "ms");
    ("ifmh.apply_ms", "ms");
    ("memo.pair_hit_ratio", "ratio");
    ("memo.fmh_hit_ratio", "ratio");
    ("ifmh.apply_delta_ms", "ms");
    ("store.append_ms", "ms");
    ("protocol.decode_request_us", "us");
    ("server.answer_us", "us");
    ("server.locate_sign_tests", "count");
    ("fragment.hit_ratio", "ratio");
    ("protocol.encode_reply_us", "us");
    ("engine.cache_hit_ratio", "ratio");
    ("engine.bytes_out_per_query", "B");
    ("roundtrip.ask_us", "us");
    ("roundtrip.wait_us", "us");
    ("protocol.decode_reply_us", "us");
    ("client.verify_us", "us");
    ("signer.verify_us", "us");
    ("signer.verify_ops", "count");
    ("trace.query_overhead_us", "us");
    ("trace.setup_overhead_s", "s");
  ]

(* The named metrics in catalogue order; fails on a missing one. *)
let select catalog values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some value -> { Measure.name; value; unit }
      | None -> failwith ("no value for metric " ^ name))
    catalog
