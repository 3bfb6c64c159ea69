(* Traced runs only: an in-process replay of the operations the load
   generator sent, against the same store, split into the stages the
   engine and the client run — request decode, Server.answer, reply
   encode on the server side; reply decode on the client side. Prints
   "m <name> <value>" lines. *)

open Aqv
open Perfbench_kit
module Store = Aqv_store.Store
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics

let max_ops = 3000

(* The first [sent] operations of the stream (wrapping around, as the
   load generator does), at most [max_ops] of them. *)
let sent_ops stream sent =
  Array.init (min sent max_ops) (fun j -> stream.(j mod Array.length stream))

let run ~workload ~seed ~dir ~sent ~spans_path =
  let w = Option.get (Workloads.find workload) in
  let table = Workloads.table w in
  let reads = Workloads.reads (Workloads.traffic w table) ~seed in
  let index =
    match Store.open_dir dir with
    | Ok (store, index, _) ->
      Store.close store;
      index
    | Error e -> failwith ("replay: " ^ Aqv_store.Error.to_string e)
  in
  let ops = sent_ops reads sent in
  let rec_ = Spans.create () in
  let locate = ref 0 and hits = ref 0 and misses = ref 0 in
  let replies =
    Array.mapi
      (fun req op ->
        let wb = Wire.writer () in
        Protocol.encode_request wb (Protocol.Run_query (Workloads.query_of_op op));
        let payload = Wire.contents wb in
        let q =
          Spans.time rec_ ~req "protocol.decode_request" (fun _ ->
              match Protocol.decode_request (Wire.reader payload) with
              | Protocol.Run_query q -> q
              | _ -> failwith "replay: request changed kind")
        in
        let m0 = Metrics.snapshot () in
        let resp = Spans.time rec_ ~req "server.answer" (fun _ -> Server.answer index q) in
        let m = Metrics.diff (Metrics.snapshot ()) m0 in
        locate := !locate + m.Metrics.locate_sign_tests;
        hits := !hits + m.Metrics.frag_hits;
        misses := !misses + m.Metrics.frag_misses;
        Spans.time rec_ ~req "protocol.encode_reply" (fun _ ->
            let wb = Wire.writer () in
            Protocol.encode_reply wb (Protocol.Answer resp);
            Wire.contents wb))
      ops
  in
  Array.iteri
    (fun req bytes ->
      Spans.time rec_ ~req "protocol.decode_reply" (fun _ ->
          ignore (Protocol.decode_reply (Wire.reader bytes))))
    replies;
  let spans = Spans.to_array rec_ in
  List.iter
    (fun r ->
      Lines.metric (r.Spans.r_name ^ "_us") (r.Spans.total_s /. float_of_int r.Spans.count *. 1e6))
    (Spans.summary spans);
  let n = float_of_int (max 1 (Array.length ops)) in
  Lines.metric "server.locate_sign_tests" (float_of_int !locate /. n);
  Lines.metric "fragment.hit_ratio" (Measure.ratio !hits !misses);
  Option.iter (fun path -> Spans.save path spans) spans_path
