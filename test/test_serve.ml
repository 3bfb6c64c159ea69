(* Tests for the serving runtime (lib/serve) and the protocol framing
   hardening that rides with it: exact-integer histograms, the
   response cache, the stats keys, deterministic fault injection
   through the test-side frame proxy ([Aqv_ref.Fault_net]), edge cases
   of the [Frame_io] framer every serving component runs (truncated /
   oversized / junk — must fail cleanly, never hang or over-allocate),
   and the concurrent engine itself (interleaving, per-connection
   deadlines, load shedding, malformed and zero-denominator requests,
   in-band stats, graceful drain). *)

module Q = Aqv_num.Rational
module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Histogram = Aqv_util.Histogram
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Signer = Aqv_crypto.Signer
module Engine = Aqv_serve.Engine
module Roundtrip = Aqv_serve.Roundtrip
module Frame_io = Aqv_serve.Frame_io
module Cache = Aqv_serve.Cache
module Fault_net = Aqv_ref.Fault_net
module Stats = Aqv_serve.Stats
module Listener = Aqv_serve.Listener
open Aqv

let check = Alcotest.check

(* one counter of an engine's stats, 0 if absent *)
let stat s key = Option.value (List.assoc_opt key (Stats.to_assoc s)) ~default:0

(* ---------------------------- fixtures ------------------------------ *)

let keypair = lazy (Signer.generate ~bits:512 Signer.Rsa (Prng.create 900L))
let table = lazy (Workload.lines_1d ~n:40 (Prng.create 901L))

let index =
  lazy (Ifmh.build ~epoch:3 ~scheme:Ifmh.Multi_signature (Lazy.force table) (Lazy.force keypair))

let ctx =
  lazy
    (Protocol.client_ctx
       (Protocol.bundle_of_index (Lazy.force index) (Lazy.force keypair).Signer.public))

let sample_x = lazy (Workload.weight_point (Lazy.force table) (Prng.create 902L))

let with_engine ?(config = Engine.default_config) f =
  let t = Engine.create { config with Engine.port = 0 } (Lazy.force index) in
  let th = Thread.create Engine.serve t in
  Fun.protect
    ~finally:(fun () ->
      Engine.stop t;
      Thread.join th)
    (fun () -> f t (Engine.port t))

(* polls an engine-side counter instead of sleeping a fixed interval *)
let await ?(timeout = 5.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out awaiting %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let topk_query k = Query.top_k ~x:(Lazy.force sample_x) ~k

let expect_verified_topk k = function
  | Protocol.Answer resp ->
    check Alcotest.bool "reply verifies" true
      (Client.accepts (Lazy.force ctx) (topk_query k) resp)
  | _ -> Alcotest.fail "expected Answer"

(* a varint whose 63-bit accumulator goes negative: 8 continuation
   bytes then 0x40 sets bit 62 (the sign bit) *)
let negative_varint = String.make 8 '\x80' ^ "\x40"

(* ---------------------------- histogram ----------------------------- *)

let test_histogram_basics () =
  let h = Histogram.create () in
  check Alcotest.int "empty count" 0 (Histogram.count h);
  check Alcotest.int "empty p99" 0 (Histogram.percentile h 99);
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 1000; -5 ];
  check Alcotest.int "count" 6 (Histogram.count h);
  check Alcotest.int "sum" 1006 (Histogram.sum h);
  check Alcotest.int "max" 1000 (Histogram.max_value h);
  (* ranks: 0,1,-5 land in bucket <=1; 2 in <=2; 3 in <=4; 1000 in <=1024 *)
  check Alcotest.int "p50" 1 (Histogram.percentile h 50);
  check Alcotest.int "p100 is exact max" 1000 (Histogram.percentile h 100);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets h) in
  check Alcotest.int "buckets sum to count" 6 total

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1; 2; 3 ];
  List.iter (Histogram.observe b) [ 100; 200 ];
  let m = Histogram.merge a b in
  check Alcotest.int "merged count" 5 (Histogram.count m);
  check Alcotest.int "merged sum" 306 (Histogram.sum m);
  check Alcotest.int "merged max" 200 (Histogram.max_value m);
  check Alcotest.int "a unchanged" 3 (Histogram.count a)

(* ------------------------------ cache ------------------------------- *)

(* [add] is an offer: a key is stored on its second offer *)
let offer c k v = Cache.add c k (fun () -> v)

let add_twice c k v =
  offer c k v;
  offer c k v

let found c keys = List.length (List.filter_map (Cache.find c) keys)

(* The table holds 1024 entries; the next key admitted clears it. *)
let test_cache_cleared_when_full () =
  let c = Cache.create () in
  let keys = List.init 1024 (Printf.sprintf "k%d") in
  List.iter (fun k -> add_twice c k k) keys;
  check Alcotest.int "a full table holds every key" 1024 (found c keys);
  add_twice c "a" "1";
  check Alcotest.(option string) "a cached" (Some "1") (Cache.find c "a");
  check Alcotest.int "bounded" 1 (found c ("a" :: keys));
  add_twice c "a" "9";
  check Alcotest.(option string) "value refreshed" (Some "9") (Cache.find c "a")

let test_cache_second_offer () =
  let c = Cache.create () in
  offer c "k" "v";
  check Alcotest.(option string) "first offer not cached" None (Cache.find c "k");
  offer c "k" "v";
  check Alcotest.(option string) "second offer cached" (Some "v") (Cache.find c "k");
  offer c "k" "w";
  check Alcotest.(option string) "a cached key is refreshed" (Some "w") (Cache.find c "k")

let test_cache_one_off_flood () =
  let c = Cache.create () in
  add_twice c "repeater" "r";
  let flood = List.init 10_000 (Printf.sprintf "one-off-%d") in
  List.iter (fun k -> offer c k "x") flood;
  check Alcotest.(option string) "repeater survives the flood" (Some "r")
    (Cache.find c "repeater");
  check Alcotest.int "no one-off cached" 0 (found c flood)

(* The doorkeeper forgets every fingerprint after 2^14 first offers, so
   a key offered again only after that many others is not admitted.
   The others avoid the key's door slot (a fingerprint is
   [Hashtbl.hash key] at slot [hash land (2^14 - 1)]), so without the
   forgetting its fingerprint would still be there. *)
let test_cache_door_forgets () =
  let c = Cache.create () in
  let slot k = Hashtbl.hash k land ((1 lsl 14) - 1) in
  let others =
    Seq.ints 0
    |> Seq.map (Printf.sprintf "one-off-%d")
    |> Seq.filter (fun k -> slot k <> slot "late")
    |> Seq.take (1 lsl 14)
  in
  offer c "late" "v";
  Seq.iter (fun k -> offer c k "x") others;
  offer c "late" "v";
  check Alcotest.(option string) "an offer after the window is a first offer" None
    (Cache.find c "late");
  offer c "late" "v";
  check Alcotest.(option string) "the next one admits" (Some "v") (Cache.find c "late")

(* ------------------------------ stats ------------------------------- *)

(* perfbench and the router read these keys by name over [Get_stats] *)
let test_stats_keys () =
  let keys =
    List.map fst (Stats.to_assoc (Stats.create ()))
    |> List.filter (fun k -> not (String.starts_with ~prefix:"latency_us_le_" k))
  in
  check
    Alcotest.(list string)
    "to_assoc keys, in order"
    [
      "req_query"; "req_rank"; "req_count"; "req_stats"; "req_republish"; "req_subscribe";
      "req_malformed"; "replies_refused"; "bytes_in"; "bytes_out"; "cache_hits";
      "cache_misses"; "conns_accepted"; "conns_refused"; "sessions_dropped"; "index_swaps";
      "log_appends"; "recoveries"; "torn_tail_truncations"; "frames_coalesced";
      "compactions"; "epoch"; "followers_connected"; "deltas_shipped";
      "follower_lag_frames"; "latency_us_count"; "latency_us_max"; "latency_us_p50";
      "latency_us_p90"; "latency_us_p99";
    ]
    keys

(* ------------------------------ faults ------------------------------ *)

let test_faults_deterministic () =
  let draw_all seed =
    let f =
      Fault_net.schedule ~seed ~delay_permille:100 ~truncate_permille:150
        ~drop_permille:150 ()
    in
    List.init 200 (fun _ ->
        match Fault_net.draw f ~frame_len:64 with
        | None -> "n"
        | Some (Fault_net.Delay d) -> Printf.sprintf "d%f" d
        | Some (Fault_net.Truncate k) -> Printf.sprintf "t%d" k
        | Some Fault_net.Drop -> "x")
  in
  check
    Alcotest.(list string)
    "same seed, same schedule" (draw_all 5L) (draw_all 5L);
  let trace = draw_all 5L in
  check Alcotest.bool "some faults drawn" true
    (List.exists (fun s -> s <> "n") trace);
  check Alcotest.bool "some clean sends" true (List.mem "n" trace)

let test_faults_bounds () =
  let f = Fault_net.schedule ~seed:1L ~truncate_permille:1000 () in
  for _ = 1 to 100 do
    match Fault_net.draw f ~frame_len:10 with
    | Some (Fault_net.Truncate k) -> assert (k >= 0 && k < 10)
    | _ -> Alcotest.fail "expected Truncate"
  done;
  (match Fault_net.schedule ~seed:1L ~drop_permille:2000 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad permille accepted")

(* ----------------------- protocol framing edges --------------------- *)

(* frames go through a temp file: a socketpair would block on frames
   larger than the kernel buffer with no concurrent reader. A plain file
   fd takes the same read/write path as a socket; no timeouts are set. *)
let with_frame_fd write_side read_side =
  let path = Filename.temp_file "aqv" ".frames" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let wfd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Fun.protect ~finally:(fun () -> Unix.close wfd) (fun () -> write_side wfd);
      let rfd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close rfd) (fun () -> read_side rfd))

let header_of n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let expect_frame_failure label raw =
  with_frame_fd
    (fun fd -> Frame_io.write_raw fd raw)
    (fun fd ->
      match Frame_io.read_frame fd with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%s not detected" label)

let test_frame_truncated_header () = expect_frame_failure "truncated header" "\x00\x00"

let test_frame_truncated_body () =
  expect_frame_failure "truncated body" (header_of 100 ^ "abc")

let test_frame_oversized () =
  expect_frame_failure "oversized frame" (header_of ((64 * 1024 * 1024) + 1))

let test_frame_zero_length () =
  with_frame_fd
    (fun fd -> ignore (Frame_io.write_frame fd ""))
    (fun fd ->
      check Alcotest.(option string) "zero-length frame" (Some "") (Frame_io.read_frame fd))

let test_junk_request_tag () =
  (match Protocol.decode_request (Wire.reader "\xff") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "junk tag accepted");
  (* negative array length must surface as Invalid_argument, the other
     malformed-frame exception the server maps to Refused *)
  match Protocol.decode_request (Wire.reader ("\x01" ^ negative_varint)) with
  | exception Invalid_argument _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "negative length accepted"

let test_frame_no_eager_alloc () =
  (* a stream claiming 64 MiB but carrying 10 bytes must fail after
     allocating only bounded chunks, never the full claimed size *)
  with_frame_fd
    (fun fd -> Frame_io.write_raw fd (header_of (64 * 1024 * 1024) ^ "0123456789"))
    (fun fd ->
      let before = Gc.allocated_bytes () in
      (match Frame_io.read_frame fd with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "truncated 64 MiB frame accepted");
      let allocated = Gc.allocated_bytes () -. before in
      if allocated > 4. *. 1024. *. 1024. then
        Alcotest.failf "eagerly allocated %.0f bytes for a truncated frame" allocated)

(* ------------------------------ engine ------------------------------ *)

let test_concurrent_sessions () =
  with_engine (fun t port ->
      (* client A stalls mid-frame (2 of 4 header bytes) and stays open *)
      let a = Roundtrip.connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.write_substring a "\x00\x00" 0 2);
          await "A accepted" (fun () -> stat (Engine.stats t) "conns_accepted" >= 1);
          (* client B must still get a verified reply within its deadline *)
          let t0 = Unix.gettimeofday () in
          let opts = { Roundtrip.default_opts with read_timeout = 3.; attempts = 2 } in
          let reply = Roundtrip.call ~opts ~port (Protocol.Run_query (topk_query 4)) in
          expect_verified_topk 4 reply;
          check Alcotest.bool "B served while A stalled" true
            (Unix.gettimeofday () -. t0 < 3.)))

let test_stalled_session_reaped () =
  let config =
    { Engine.default_config with idle_timeout = 0.2; read_timeout = 0.2 }
  in
  with_engine ~config (fun t port ->
      let a = Roundtrip.connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.write_substring a "\x00\x00" 0 2);
          (* the server must reap the stalled session on its own *)
          await "stalled session dropped" (fun () ->
              stat (Engine.stats t) "sessions_dropped" >= 1);
          (* and a misbehaving client costs nobody else anything *)
          expect_verified_topk 3
            (Roundtrip.call ~port (Protocol.Run_query (topk_query 3)))))

let test_overload_shedding () =
  let config = { Engine.default_config with max_conns = 1 } in
  with_engine ~config (fun t port ->
      let a = Roundtrip.connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          await "A accepted" (fun () -> stat (Engine.stats t) "conns_accepted" >= 1);
          match Roundtrip.call ~port (Protocol.Run_query (topk_query 2)) with
          | Protocol.Refused m ->
            check Alcotest.string "load shed reply" "overloaded" m;
            check Alcotest.bool "shed counted" true
              (stat (Engine.stats t) "conns_refused" >= 1)
          | _ -> Alcotest.fail "expected Refused \"overloaded\""))

let test_malformed_frames_refused_inline () =
  with_engine (fun _ port ->
      Roundtrip.with_connection ~port (fun fd ->
          let ask_raw payload =
            ignore (Frame_io.write_frame fd payload);
            match Frame_io.read_frame ~header_timeout:5. ~body_timeout:5. fd with
            | Some reply -> Protocol.decode_reply (Wire.reader reply)
            | None -> Alcotest.fail "connection closed on malformed frame"
          in
          let expect_refused label payload =
            match ask_raw payload with
            | Protocol.Refused _ -> ()
            | _ -> Alcotest.failf "%s not refused" label
          in
          expect_refused "junk request tag" "\xff";
          expect_refused "zero-length frame" "";
          expect_refused "negative array length" ("\x01" ^ negative_varint);
          (* an array length of 2^40 followed by one honest rational: the
             decoder must refuse it from the bytes received, not try to
             allocate it *)
          let huge_array tags =
            let w = Wire.writer () in
            List.iter (Wire.u8 w) tags;
            Wire.varint w (1 lsl 40);
            Q.encode w Q.one;
            Wire.contents w
          in
          expect_refused "huge Run_query x" (huge_array [ 0; 0 ]);
          expect_refused "huge Run_rank x" (huge_array [ 1 ]);
          expect_refused "huge Run_count x" (huge_array [ 2 ]);
          (* the same session keeps serving honest requests afterwards *)
          let w = Wire.writer () in
          Protocol.encode_request w (Protocol.Run_query (topk_query 3));
          (match ask_raw (Wire.contents w) with
          | Protocol.Answer resp ->
            check Alcotest.bool "session survives malformed frames" true
              (Client.accepts (Lazy.force ctx) (topk_query 3) resp)
          | _ -> Alcotest.fail "expected Answer after malformed frames")))

let test_zero_denominator_refused () =
  with_engine (fun t port ->
      Roundtrip.with_connection ~port (fun fd ->
          (* Run_rank whose x is 1/0: an empty denominator byte string *)
          let w = Wire.writer () in
          Wire.u8 w 1;
          Wire.varint w 1;
          Wire.u8 w 0;
          Wire.bytes w "\x01";
          Wire.bytes w "";
          Wire.varint w 3;
          ignore (Frame_io.write_frame fd (Wire.contents w));
          (match Frame_io.read_frame ~header_timeout:5. ~body_timeout:5. fd with
          | Some reply -> (
            match Protocol.decode_reply (Wire.reader reply) with
            | Protocol.Refused _ -> ()
            | _ -> Alcotest.fail "zero denominator not refused")
          | None -> Alcotest.fail "connection closed on zero denominator");
          check Alcotest.int "counted as malformed" 1
            (stat (Engine.stats t) "req_malformed");
          (* the same session keeps serving *)
          expect_verified_topk 3 (Roundtrip.ask fd (Protocol.Run_query (topk_query 3)))))

let test_oversized_frame_drops_session () =
  with_engine (fun t port ->
      let a = Roundtrip.connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          (* an unservable length: the server cannot resync, so it must
             close — and stay alive for everyone else *)
          ignore (Unix.write_substring a (header_of ((64 * 1024 * 1024) + 1)) 0 4);
          await "oversized frame dropped" (fun () ->
              stat (Engine.stats t) "sessions_dropped" >= 1);
          expect_verified_topk 3
            (Roundtrip.call ~port (Protocol.Run_query (topk_query 3)))))

let test_stats_and_cache_over_wire () =
  with_engine (fun _ port ->
      Roundtrip.with_connection ~port (fun fd ->
          (* the first two asks store the reply, the third hits it *)
          for _ = 1 to 3 do
            expect_verified_topk 5 (Roundtrip.ask fd (Protocol.Run_query (topk_query 5)))
          done;
          let x = Lazy.force sample_x in
          (match Roundtrip.ask fd (Protocol.Run_rank { x; record_id = 3 }) with
          | Protocol.Rank_answer (Some resp) ->
            check Alcotest.bool "rank verifies" true
              (Result.is_ok (Client.verify_rank (Lazy.force ctx) ~x ~record_id:3 resp))
          | _ -> Alcotest.fail "expected Rank_answer");
          match Roundtrip.ask fd Protocol.Get_stats with
          | Protocol.Stats kvs ->
            let get k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
            check Alcotest.bool "queries counted" true (get "req_query" >= 2);
            check Alcotest.bool "rank counted" true (get "req_rank" >= 1);
            check Alcotest.bool "cache hit recorded" true (get "cache_hits" >= 1);
            check Alcotest.bool "cache miss recorded" true (get "cache_misses" >= 1);
            check Alcotest.bool "latency recorded" true (get "latency_us_count" >= 3);
            check Alcotest.bool "bytes in counted" true (get "bytes_in" > 0);
            check Alcotest.bool "bytes out counted" true (get "bytes_out" > 0)
          | _ -> Alcotest.fail "expected Stats"))

(* A session encodes every reply into one writer, reset per reply: each
   reply, longer or shorter than the one before it, must be the bytes a
   fresh writer gives. The exchanges go three times over one connection:
   the second pass admits each answer to the cache, the third is served
   from it, so a stored frame that shared the writer's buffer would
   come back holding a later reply. *)
let test_session_writer_reuse () =
  let index = Lazy.force index and x = Lazy.force sample_x in
  let encoded f v =
    let w = Wire.writer () in
    f w v;
    Wire.contents w
  in
  let range size =
    let l, u = Workload.range_for_result_size (Lazy.force table) ~x ~size in
    Protocol.Run_query (Query.range ~x ~l ~u)
  in
  let asked request =
    (encoded Protocol.encode_request request, Protocol.handle index request)
  in
  let junk =
    match Protocol.decode_request (Wire.reader "\xff") with
    | exception (Failure msg | Invalid_argument msg) -> ("\xff", Protocol.Refused msg)
    | _ -> Alcotest.fail "junk tag decoded"
  in
  let exchanges =
    [
      asked (range 30);
      asked (Protocol.Run_query (topk_query 2));
      junk;
      asked (range 12);
      asked (Protocol.Run_rank { x; record_id = 5 });
      asked (range 35);
      asked (Protocol.Run_query (topk_query 1));
      junk;
    ]
  in
  with_engine (fun t port ->
      Roundtrip.with_connection ~port (fun fd ->
          for pass = 1 to 3 do
            List.iteri
              (fun i (payload, reply) ->
                ignore (Frame_io.write_frame fd payload);
                match Frame_io.read_frame ~header_timeout:5. ~body_timeout:5. fd with
                | Some got ->
                  check Alcotest.string
                    (Printf.sprintf "pass %d: reply %d = fresh encode" pass i)
                    (encoded Protocol.encode_reply reply) got
                | None -> Alcotest.fail "connection closed")
              exchanges
          done;
          check Alcotest.int "the third pass hit the cache" 6
            (stat (Engine.stats t) "cache_hits")))

(* The engine's replies pass through a seeded frame proxy that
   delays, truncates and drops them; the client retries through it. *)
let test_fault_injection_never_corrupts () =
  let faults =
    Fault_net.schedule ~seed:909L ~delay_permille:100 ~max_delay_ms:5
      ~truncate_permille:120 ~drop_permille:120 ()
  in
  with_engine (fun t port ->
      let proxy = Fault_net.start ~upstream:port faults in
      Fun.protect
        ~finally:(fun () -> Fault_net.stop proxy)
        (fun () ->
          let port = Fault_net.port proxy in
          let opts = { Roundtrip.default_opts with attempts = 12; backoff = 0.01 } in
          (* repeated identical queries: any cached corruption would come
             back verbatim and fail client verification *)
          for i = 0 to 29 do
            let k = 2 + (i mod 2) in
            expect_verified_topk k
              (Roundtrip.call ~opts ~port (Protocol.Run_query (topk_query k)))
          done;
          let fired = Fault_net.counts proxy in
          let injected =
            fired.Fault_net.delays + fired.Fault_net.truncates + fired.Fault_net.drops
          in
          check Alcotest.bool "faults actually fired" true (injected >= 1);
          check Alcotest.bool "cache served hits despite faults" true
            (stat (Engine.stats t) "cache_hits" >= 1)))

(* ----------------------------- hot swap ----------------------------- *)

let updated_pair () =
  let changes =
    [ Update.Modify (Aqv_db.Record.make ~id:0 ~attrs:[| Q.of_int 7; Q.of_int 21 |] ()) ]
  in
  (changes, Ifmh.apply (Lazy.force keypair) changes (Lazy.force index))

let ctx_of idx =
  Protocol.client_ctx (Protocol.bundle_of_index idx (Lazy.force keypair).Signer.public)

let test_swap_index_monotonic () =
  with_engine (fun t _port ->
      let _, updated = updated_pair () in
      check Alcotest.bool "same-epoch swap refused" false
        (Result.is_ok (Engine.install_snapshot t (Lazy.force index)));
      check Alcotest.bool "advancing swap installs" true
        (Result.is_ok (Engine.install_snapshot t updated));
      check Alcotest.int "served epoch" 4 (Ifmh.epoch (Engine.index t));
      check Alcotest.bool "regressing swap refused" false
        (Result.is_ok (Engine.install_snapshot t (Lazy.force index))))

let test_republish_over_wire () =
  let changes, updated = updated_pair () in
  with_engine (fun t port ->
      Roundtrip.with_connection ~port (fun fd ->
          (* warm the cache at the served epoch: the second ask stores
             the reply, the third hits it *)
          for _ = 1 to 3 do
            expect_verified_topk 4 (Roundtrip.ask fd (Protocol.Run_query (topk_query 4)))
          done;
          check Alcotest.bool "cache warm" true
            (stat (Engine.stats t) "cache_hits" >= 1);
          (* the owner ships the delta in-band *)
          (match Roundtrip.ask fd (Protocol.Republish (Ifmh.delta ~changes updated)) with
          | Protocol.Republished e -> check Alcotest.int "served epoch" 4 e
          | _ -> Alcotest.fail "expected Republished");
          check Alcotest.bool "swap counted" true
            (stat (Engine.stats t) "index_swaps" >= 1);
          check Alcotest.bool "republish counted" true
            (stat (Engine.stats t) "req_republish" >= 1);
          (* the very query cached pre-swap now answers from the new
             index: the epoch in the cache key strands the old entry *)
          (match Roundtrip.ask fd (Protocol.Run_query (topk_query 4)) with
          | Protocol.Answer resp ->
            check Alcotest.int "post-swap epoch" 4 resp.Server.vo.Vo.epoch;
            check Alcotest.bool "post-swap reply verifies at min_epoch 4" true
              (Client.accepts (ctx_of updated) (topk_query 4) resp)
          | _ -> Alcotest.fail "expected Answer");
          (* replaying the delta cannot move the epoch again *)
          match Roundtrip.ask fd (Protocol.Republish (Ifmh.delta ~changes updated)) with
          | Protocol.Refused _ -> ()
          | _ -> Alcotest.fail "expected Refused on replayed delta"))

(* Concurrent clients across a live swap: every reply must verify
   against exactly the bundle of the epoch it claims (a pre-swap reply
   never verifies at the new minimum epoch), no epoch other than the two
   versions ever appears, and the epoch each connection observes is
   monotonic. Workers straddle the swap by construction: 20 requests
   before it, 20 after. *)
let test_swap_under_concurrent_load () =
  let changes, updated = updated_pair () in
  let ctx4 = ctx_of updated in
  with_engine (fun t port ->
      let failures = Atomic.make 0 in
      let swapped = Atomic.make false in
      let saw_new = Atomic.make 0 in
      let worker i =
        Roundtrip.with_connection ~port (fun fd ->
            let last = ref 0 in
            for j = 0 to 39 do
              if j = 20 then await "swap" (fun () -> Atomic.get swapped);
              let q = topk_query (2 + ((i + j) mod 4)) in
              match Roundtrip.ask fd (Protocol.Run_query q) with
              | Protocol.Answer resp ->
                let e = resp.Server.vo.Vo.epoch in
                let ok =
                  match e with
                  | 3 ->
                    Client.accepts (Lazy.force ctx) q resp
                    && not (Client.accepts ctx4 q resp)
                  | 4 ->
                    Atomic.incr saw_new;
                    Client.accepts ctx4 q resp
                  | _ -> false
                in
                if (not ok) || e < !last then Atomic.incr failures;
                last := max !last e
              | _ -> Atomic.incr failures
            done)
      in
      let threads = List.init 4 (fun i -> Thread.create worker i) in
      await "some pre-swap traffic" (fun () ->
          stat (Engine.stats t) "req_query" >= 8);
      (match Roundtrip.call ~port (Protocol.Republish (Ifmh.delta ~changes updated)) with
      | Protocol.Republished 4 -> Atomic.set swapped true
      | _ -> Alcotest.fail "republish failed");
      List.iter Thread.join threads;
      check Alcotest.int "no unverifiable or regressing replies" 0
        (Atomic.get failures);
      check Alcotest.bool "post-swap replies observed" true (Atomic.get saw_new >= 1))

(* The cache never changes a reply: one request stream, with repeats
   and an epoch swap at a drawn position, gets the bytes of a fresh
   encode of [Protocol.handle] on the index the engine serves at that
   position. *)
let cache_law_requests =
  lazy
    (let table = Lazy.force table and x = Lazy.force sample_x in
     let range size =
       let l, u = Workload.range_for_result_size table ~x ~size in
       [ Protocol.Run_query (Query.range ~x ~l ~u); Protocol.Run_count { x; l; u } ]
     in
     let w = Wire.writer () in
     List.map
       (fun request ->
         Wire.reset w;
         Protocol.encode_request w request;
         (request, Wire.contents w))
       (List.init 4 (fun k -> Protocol.Run_query (topk_query (k + 1)))
       @ range 5 @ range 12
       @ [ Protocol.Run_rank { x; record_id = 3 }; Protocol.Run_rank { x; record_id = 7 } ])
     |> Array.of_list)

let updated_index = lazy (snd (updated_pair ()))

let fresh_reply index request =
  let w = Wire.writer () in
  Protocol.encode_reply w (Protocol.handle index request);
  Wire.contents w

let replies_match ~swap_at stream =
  let requests = Lazy.force cache_law_requests in
  with_engine (fun t port ->
      Roundtrip.with_connection ~port (fun fd ->
          List.mapi
            (fun i r ->
              if i = swap_at then
                ignore (Result.get_ok (Engine.install_snapshot t (Lazy.force updated_index)));
              let index = Lazy.force (if i < swap_at then index else updated_index) in
              let request, payload = requests.(r) in
              ignore (Frame_io.write_frame fd payload);
              match Frame_io.read_frame ~header_timeout:5. ~body_timeout:5. fd with
              | Some reply -> reply = fresh_reply index request
              | None -> Alcotest.fail "connection closed")
            stream
          |> List.for_all Fun.id))

(* No shrinker: every case stands up an engine, so shrinking a failure
   would take tens of seconds; the first counterexample is printed as
   found. *)
let test_cache_never_changes_a_reply =
  let pool = Array.length (Lazy.force cache_law_requests) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~long_factor:20 ~name:"cache never changes a reply"
       (QCheck.make
          ~print:QCheck.Print.(pair (list int) int)
          QCheck.Gen.(pair (list_size (int_range 1 40) (int_bound (pool - 1))) (int_bound 40)))
       (fun (stream, swap_at) -> replies_match ~swap_at stream))

let test_graceful_drain () =
  let t = Engine.create { Engine.default_config with Engine.port = 0 } (Lazy.force index) in
  let th = Thread.create Engine.serve t in
  let port = Engine.port t in
  expect_verified_topk 3 (Roundtrip.call ~port (Protocol.Run_query (topk_query 3)));
  Engine.stop t;
  Thread.join th;
  (* the listening socket is gone: fresh connects are refused fast *)
  let opts = { Roundtrip.default_opts with attempts = 2; backoff = 0.01 } in
  match Roundtrip.call ~opts ~port (Protocol.Run_query (topk_query 3)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "server still reachable after stop"

(* A keep-alive connection left idle across [Engine.stop] reads EOF: the
   listener shuts down its sessions' receive side, so [serve] returns
   well inside its drain timeout. *)
let test_idle_session_ends_on_stop () =
  let drain_timeout = 5. in
  let t =
    Engine.create { Engine.default_config with Engine.port = 0; drain_timeout } (Lazy.force index)
  in
  let th = Thread.create Engine.serve t in
  Roundtrip.with_connection ~port:(Engine.port t) (fun fd ->
      let w = Wire.writer () in
      Protocol.encode_request w (Protocol.Run_query (topk_query 3));
      ignore (Frame_io.write_frame fd (Wire.contents w));
      check Alcotest.bool "the session answers first" true
        (Frame_io.read_frame ~header_timeout:5. fd <> None);
      let t0 = Unix.gettimeofday () in
      Engine.stop t;
      Thread.join th;
      let took = Unix.gettimeofday () -. t0 in
      if took > 1.5 then
        Alcotest.failf "serve took %.2f s to return (drain %.0f s)" took drain_timeout;
      check Alcotest.bool "the idle connection reads EOF" true
        (Frame_io.read_frame ~header_timeout:5. fd = None))

(* [Listener.serve] on an idle listener returns promptly after [stop],
   also after a [stop] that came before [serve]. The accept loop sleeps
   in select until a connection or the stop arrives, so a missed wake is
   a hang: [serve] runs in a thread of its own and the 5 s bound only
   catches that. *)
let test_listener_wakes_on_stop () =
  let serve_then_stop ~stop_first =
    let l = Listener.create ~port:0 in
    if stop_first then Listener.stop l;
    let returned = Atomic.make false in
    let _ : Thread.t =
      Thread.create
        (fun () ->
          Listener.serve l ~max_conns:1 ~drain_timeout:1. ~on_shed:ignore ~on_error:raise
            (fun _ -> ());
          Atomic.set returned true)
        ()
    in
    (* let the loop reach its select *)
    Thread.delay 0.05;
    let t0 = Unix.gettimeofday () in
    Listener.stop l;
    Listener.stop l;
    while (not (Atomic.get returned)) && Unix.gettimeofday () -. t0 < 5. do
      Thread.delay 0.001
    done;
    if not (Atomic.get returned) then
      Alcotest.failf "serve still running 5 s after stop (stop first: %b)" stop_first
  in
  serve_then_stop ~stop_first:false;
  serve_then_stop ~stop_first:true

let () =
  Alcotest.run "aqv_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cleared when full" `Quick test_cache_cleared_when_full;
          Alcotest.test_case "admitted on second offer" `Quick test_cache_second_offer;
          Alcotest.test_case "one-off flood keeps repeater" `Quick test_cache_one_off_flood;
          Alcotest.test_case "doorkeeper forgets" `Quick test_cache_door_forgets;
        ] );
      ("stats", [ Alcotest.test_case "keys" `Quick test_stats_keys ]);
      ( "faults",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_faults_deterministic;
          Alcotest.test_case "bounds" `Quick test_faults_bounds;
        ] );
      ( "framing",
        [
          Alcotest.test_case "truncated header" `Quick test_frame_truncated_header;
          Alcotest.test_case "truncated body" `Quick test_frame_truncated_body;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "zero length" `Quick test_frame_zero_length;
          Alcotest.test_case "junk request tag" `Quick test_junk_request_tag;
          Alcotest.test_case "no eager 64MiB alloc" `Quick test_frame_no_eager_alloc;
        ] );
      ( "engine",
        [
          Alcotest.test_case "stalled client doesn't block" `Quick test_concurrent_sessions;
          Alcotest.test_case "stalled session reaped" `Quick test_stalled_session_reaped;
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "malformed frames refused" `Quick
            test_malformed_frames_refused_inline;
          Alcotest.test_case "zero denominator refused" `Quick test_zero_denominator_refused;
          Alcotest.test_case "oversized frame drops session" `Quick
            test_oversized_frame_drops_session;
          Alcotest.test_case "stats + cache over wire" `Quick
            test_stats_and_cache_over_wire;
          Alcotest.test_case "fault injection never corrupts" `Quick
            test_fault_injection_never_corrupts;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "idle session ends on stop" `Quick test_idle_session_ends_on_stop;
          Alcotest.test_case "listener wakes on stop" `Quick test_listener_wakes_on_stop;
          Alcotest.test_case "one writer per session" `Quick test_session_writer_reuse;
        ] );
      ( "hot-swap",
        [
          Alcotest.test_case "swap is epoch-monotonic" `Quick test_swap_index_monotonic;
          Alcotest.test_case "republish over the wire" `Quick test_republish_over_wire;
          Alcotest.test_case "concurrent clients across swap" `Quick
            test_swap_under_concurrent_load;
          test_cache_never_changes_a_reply;
        ] );
    ]
