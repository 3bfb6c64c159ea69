module Histogram = Aqv_util.Histogram

type request_kind =
  [ `Query | `Rank | `Count | `Stats | `Republish | `Subscribe | `Malformed ]

type t = {
  mu : Mutex.t;
  mutable req_query : int;
  mutable req_rank : int;
  mutable req_count : int;
  mutable req_stats : int;
  mutable req_republish : int;
  mutable req_subscribe : int;
  mutable req_malformed : int;
  mutable refused : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable conns_accepted : int;
  mutable conns_refused : int;
  mutable sessions_dropped : int;
  mutable index_swaps : int;
  mutable log_appends : int;
  mutable recoveries : int;
  mutable torn_tail_truncations : int;
  mutable frames_coalesced : int;
  mutable compactions : int;
  mutable epoch : int;
  mutable followers_connected : int;
  mutable deltas_shipped : int;
  mutable follower_lag_frames : int;
  latency : Histogram.t;
}

let create () =
  {
    mu = Mutex.create ();
    req_query = 0;
    req_rank = 0;
    req_count = 0;
    req_stats = 0;
    req_republish = 0;
    req_subscribe = 0;
    req_malformed = 0;
    refused = 0;
    bytes_in = 0;
    bytes_out = 0;
    cache_hits = 0;
    cache_misses = 0;
    conns_accepted = 0;
    conns_refused = 0;
    sessions_dropped = 0;
    index_swaps = 0;
    log_appends = 0;
    recoveries = 0;
    torn_tail_truncations = 0;
    frames_coalesced = 0;
    compactions = 0;
    epoch = 0;
    followers_connected = 0;
    deltas_shipped = 0;
    follower_lag_frames = 0;
    latency = Histogram.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let on_request t kind =
  locked t (fun () ->
      match kind with
      | `Query -> t.req_query <- t.req_query + 1
      | `Rank -> t.req_rank <- t.req_rank + 1
      | `Count -> t.req_count <- t.req_count + 1
      | `Stats -> t.req_stats <- t.req_stats + 1
      | `Republish -> t.req_republish <- t.req_republish + 1
      | `Subscribe -> t.req_subscribe <- t.req_subscribe + 1
      | `Malformed -> t.req_malformed <- t.req_malformed + 1)

let on_refused t = locked t (fun () -> t.refused <- t.refused + 1)
let observe_latency_us t us = locked t (fun () -> Histogram.observe t.latency us)
let add_bytes_in t n = locked t (fun () -> t.bytes_in <- t.bytes_in + n)
let add_bytes_out t n = locked t (fun () -> t.bytes_out <- t.bytes_out + n)
let cache_hit t = locked t (fun () -> t.cache_hits <- t.cache_hits + 1)
let cache_miss t = locked t (fun () -> t.cache_misses <- t.cache_misses + 1)
let conn_accepted t = locked t (fun () -> t.conns_accepted <- t.conns_accepted + 1)
let conn_refused t = locked t (fun () -> t.conns_refused <- t.conns_refused + 1)
let session_dropped t = locked t (fun () -> t.sessions_dropped <- t.sessions_dropped + 1)
let index_swapped t = locked t (fun () -> t.index_swaps <- t.index_swaps + 1)
let log_appended t = locked t (fun () -> t.log_appends <- t.log_appends + 1)
let compacted t = locked t (fun () -> t.compactions <- t.compactions + 1)

let recovered t ~torn_tail ~coalesced =
  locked t (fun () ->
      t.recoveries <- t.recoveries + 1;
      t.frames_coalesced <- t.frames_coalesced + coalesced;
      if torn_tail then
        t.torn_tail_truncations <- t.torn_tail_truncations + 1)

let set_epoch t e = locked t (fun () -> t.epoch <- e)

let follower_connected t =
  locked t (fun () -> t.followers_connected <- t.followers_connected + 1)

let follower_disconnected t =
  locked t (fun () -> t.followers_connected <- t.followers_connected - 1)

let delta_shipped t = locked t (fun () -> t.deltas_shipped <- t.deltas_shipped + 1)
let set_follower_lag t n = locked t (fun () -> t.follower_lag_frames <- n)

let to_assoc t =
  locked t (fun () ->
      let counters =
        [
          ("req_query", t.req_query);
          ("req_rank", t.req_rank);
          ("req_count", t.req_count);
          ("req_stats", t.req_stats);
          ("req_republish", t.req_republish);
          ("req_subscribe", t.req_subscribe);
          ("req_malformed", t.req_malformed);
          ("replies_refused", t.refused);
          ("bytes_in", t.bytes_in);
          ("bytes_out", t.bytes_out);
          ("cache_hits", t.cache_hits);
          ("cache_misses", t.cache_misses);
          ("conns_accepted", t.conns_accepted);
          ("conns_refused", t.conns_refused);
          ("sessions_dropped", t.sessions_dropped);
          ("index_swaps", t.index_swaps);
          ("log_appends", t.log_appends);
          ("recoveries", t.recoveries);
          ("torn_tail_truncations", t.torn_tail_truncations);
          ("frames_coalesced", t.frames_coalesced);
          ("compactions", t.compactions);
          ("epoch", t.epoch);
          ("followers_connected", t.followers_connected);
          ("deltas_shipped", t.deltas_shipped);
          ("follower_lag_frames", t.follower_lag_frames);
          ("latency_us_count", Histogram.count t.latency);
          ("latency_us_max", Histogram.max_value t.latency);
          ("latency_us_p50", Histogram.percentile t.latency 50);
          ("latency_us_p90", Histogram.percentile t.latency 90);
          ("latency_us_p99", Histogram.percentile t.latency 99);
        ]
      in
      counters
      @ List.map
          (fun (b, c) -> (Printf.sprintf "latency_us_le_%d" b, c))
          (Histogram.buckets t.latency))

let pp ppf t =
  locked t (fun () ->
      let requests =
        t.req_query + t.req_rank + t.req_count + t.req_stats + t.req_republish
      in
      Format.fprintf ppf
        "req=%d (q=%d r=%d c=%d s=%d bad=%d) refused=%d cache=%d/%d \
         conns=%d shed=%d dropped=%d in=%dB out=%dB lat[%a]"
        requests t.req_query t.req_rank t.req_count t.req_stats t.req_malformed
        t.refused t.cache_hits
        (t.cache_hits + t.cache_misses)
        t.conns_accepted t.conns_refused t.sessions_dropped t.bytes_in
        t.bytes_out Histogram.pp t.latency)
