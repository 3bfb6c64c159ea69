module Histogram = Aqv_util.Histogram

type counter =
  | Req_query
  | Req_rank
  | Req_count
  | Req_stats
  | Req_republish
  | Req_subscribe
  | Req_malformed
  | Replies_refused
  | Bytes_in
  | Bytes_out
  | Cache_hits
  | Cache_misses
  | Conns_accepted
  | Conns_refused
  | Sessions_dropped
  | Index_swaps
  | Log_appends
  | Recoveries
  | Torn_tail_truncations
  | Frames_coalesced
  | Compactions
  | Epoch
  | Followers_connected
  | Deltas_shipped
  | Follower_lag_frames

(* One name per constructor, in declaration order: the order of
   [to_assoc], which readers of [Get_stats] see. *)
let names =
  [| "req_query"; "req_rank"; "req_count"; "req_stats"; "req_republish";
     "req_subscribe"; "req_malformed"; "replies_refused"; "bytes_in"; "bytes_out";
     "cache_hits"; "cache_misses"; "conns_accepted"; "conns_refused";
     "sessions_dropped"; "index_swaps"; "log_appends"; "recoveries";
     "torn_tail_truncations"; "frames_coalesced"; "compactions"; "epoch";
     "followers_connected"; "deltas_shipped"; "follower_lag_frames" |]

(* A constant constructor is represented by its position in the
   declaration, so it indexes [names] and the counter array directly. *)
let slot (c : counter) : int = Obj.magic c

type t = { counters : int Atomic.t array; latency_mu : Mutex.t; latency : Histogram.t }

let create () =
  {
    counters = Array.init (Array.length names) (fun _ -> Atomic.make 0);
    latency_mu = Mutex.create ();
    latency = Histogram.create ();
  }

let add t c n = ignore (Atomic.fetch_and_add t.counters.(slot c) n)
let incr t c = Atomic.incr t.counters.(slot c)
let set t c n = Atomic.set t.counters.(slot c) n
let get t c = Atomic.get t.counters.(slot c)

let with_latency t f =
  Mutex.lock t.latency_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.latency_mu) (fun () -> f t.latency)

let observe_latency_us t us = with_latency t (fun h -> Histogram.observe h us)

let to_assoc t =
  let counters = Array.to_list (Array.mapi (fun i name -> (name, Atomic.get t.counters.(i))) names) in
  counters
  @ with_latency t (fun h ->
        [
          ("latency_us_count", Histogram.count h);
          ("latency_us_max", Histogram.max_value h);
          ("latency_us_p50", Histogram.percentile h 50);
          ("latency_us_p90", Histogram.percentile h 90);
          ("latency_us_p99", Histogram.percentile h 99);
        ]
        @ List.map (fun (b, c) -> (Printf.sprintf "latency_us_le_%d" b, c)) (Histogram.buckets h))

let pp ppf t =
  let g = get t in
  Format.fprintf ppf
    "req=%d (q=%d r=%d c=%d s=%d bad=%d) refused=%d cache=%d/%d conns=%d shed=%d \
     dropped=%d in=%dB out=%dB lat[%a]"
    (g Req_query + g Req_rank + g Req_count + g Req_stats + g Req_republish)
    (g Req_query) (g Req_rank) (g Req_count) (g Req_stats) (g Req_malformed)
    (g Replies_refused) (g Cache_hits)
    (g Cache_hits + g Cache_misses)
    (g Conns_accepted) (g Conns_refused) (g Sessions_dropped) (g Bytes_in) (g Bytes_out)
    (fun ppf t -> with_latency t (Histogram.pp ppf))
    t
