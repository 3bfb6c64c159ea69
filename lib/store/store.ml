module Wire = Aqv_util.Wire
module Ifmh = Aqv.Ifmh

type policy = { max_log_frames : int; max_log_bytes : int }

(* Coalesced replay folds the whole log into one rebuild, so recovery
   cost is nearly flat in log length and the log can run much longer
   than under the old frame-by-frame replay (64 frames / 16 MiB). *)
let default_policy = { max_log_frames = 256; max_log_bytes = 64 * 1024 * 1024 }

type t = {
  dir : string;
  policy : policy;
  fault : Fault.t;
  mutable wal : Wal.t;
}

type recovery = {
  snapshot_epoch : int;
  final_epoch : int;
  replayed : int;
  skipped : int;
  torn_tail_bytes : int;
}

let snapshot_path dir = Filename.concat dir "index.bin"
let wal_path dir = Filename.concat dir "wal.log"

let publish ?(policy = default_policy) ~dir index =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> Error.fail (Error.Io_error { file = dir; reason = "not a directory" })
  | exception Sys_error _ -> (
      match Unix.mkdir dir 0o755 with
      | exception Unix.Unix_error (e, _, _) ->
          Error.fail (Error.Io_error { file = dir; reason = Unix.error_message e })
      | () -> ()));
  Snapshot.write ~path:(snapshot_path dir) index;
  let wal = Wal.create ~path:(wal_path dir) in
  { dir; policy; fault = Fault.create (); wal }

(* Replay the validated log over the snapshot image, coalesced:
   applying frame by frame would cost one full structure rebuild per
   accepted frame, k rebuilds for one final answer. Instead, walk the
   log simulating only the epoch chain, fold the surviving change
   lists into one net list with [Update.compose], and replay a single
   synthetic delta carrying the last frame's epoch and signatures: one
   rebuild regardless of log length. [Update.compose] guarantees the
   net list reproduces the sequential result positionally, and the
   apply == rebuild invariant does the rest — the recovered index is
   byte-identical to a frame-by-frame replay (test_store asserts it
   frame prefix by frame prefix against the reference in test/ref).

   Frames whose base epoch is below the current one are leftovers of an
   interrupted compaction (snapshot rewritten, log not yet reset) and
   are skipped without even decoding — a skipped frame must never be
   folded in; a frame that jumps ahead means the log does not continue
   this snapshot and recovery must refuse.

   Validation parity: [compose ~exists] (over the snapshot's record
   ids) rejects a syntactically invalid sequence at the offending frame
   with the message frame-by-frame replay would produce. What is *not*
   re-checked per frame is the payload of intermediate frames
   (signature counts, transient emptiness) — those versions are never
   served, and the final frame's payload is fully validated by
   [Ifmh.apply_delta]; such a divergence is attributed to the last
   accepted frame. *)
let replay ~file index0 frames =
  let base_ids = Hashtbl.create 64 in
  Array.iter
    (fun r -> Hashtbl.replace base_ids (Aqv_db.Record.id r) ())
    (Aqv_db.Table.records (Ifmh.table index0));
  let exists id = Hashtbl.mem base_ids id in
  let rec fold i cur acc last replayed skipped = function
    | [] -> Ok (acc, last, replayed, skipped)
    | (f : Wal.frame) :: rest -> (
        if f.base_epoch < cur then fold (i + 1) cur acc last replayed (skipped + 1) rest
        else if f.base_epoch > cur then
          Error
            (Error.Epoch_gap
               { file; frame = i; base_epoch = f.base_epoch; current_epoch = cur })
        else
          match Ifmh.decode_delta (Wire.reader f.delta) with
          | exception Failure m -> Error (Error.Replay_failed { file; frame = i; reason = m })
          | exception Invalid_argument m ->
              Error (Error.Replay_failed { file; frame = i; reason = m })
          | d ->
              if Ifmh.delta_epoch d < cur then
                Error
                  (Error.Replay_failed
                     { file; frame = i; reason = "Ifmh.apply_delta: epoch regression" })
              else (
                match Aqv.Update.compose ~exists acc (Ifmh.delta_changes d) with
                | exception Invalid_argument m ->
                    Error
                      (Error.Replay_failed
                         { file; frame = i; reason = "Ifmh.apply_delta: " ^ m })
                | acc ->
                    fold (i + 1) (Ifmh.delta_epoch d) acc (Some (i, d)) (replayed + 1)
                      skipped rest))
  in
  match fold 0 (Ifmh.epoch index0) [] None 0 0 frames with
  | Error e -> Error e
  | Ok (_, None, _, skipped) -> Ok (index0, 0, skipped)
  | Ok (changes, Some (li, last), replayed, skipped) -> (
      match Ifmh.apply_delta (Ifmh.delta_with_changes changes last) index0 with
      | exception Failure m -> Error (Error.Replay_failed { file; frame = li; reason = m })
      | exception Invalid_argument m ->
          Error (Error.Replay_failed { file; frame = li; reason = m })
      | index -> Ok (index, replayed, skipped))

let open_dir ?(policy = default_policy) dir =
  let fault = Fault.create () in
  match Snapshot.read ~fault ~path:(snapshot_path dir) () with
  | Error e -> Error e
  | Ok (index0, hdr) -> (
      let wp = wal_path dir in
      let fresh torn =
        match Wal.create ~path:wp with
        | exception Error.Error e -> Error e
        | wal ->
            Ok
              ( { dir; policy; fault; wal },
                index0,
                {
                  snapshot_epoch = hdr.epoch;
                  final_epoch = hdr.epoch;
                  replayed = 0;
                  skipped = 0;
                  torn_tail_bytes = torn;
                } )
      in
      if not (Sys.file_exists wp) then fresh 0
      else
        match Wal.scan ~fault ~path:wp () with
        | Error e -> Error e
        | Ok sc ->
            if sc.valid_bytes < 8 then
              (* Interrupted create: even the magic is torn. *)
              fresh sc.valid_bytes
            else
              match
                if sc.torn_bytes > 0 then Wal.truncate ~path:wp sc.valid_bytes
              with
              | exception Error.Error e -> Error e
              | () -> (
              match replay ~file:wp index0 sc.scanned with
              | Error e -> Error e
              | Ok (index, replayed, skipped) -> (
                  match
                    Wal.open_append ~path:wp ~bytes:sc.valid_bytes
                      ~frames:(List.length sc.scanned)
                  with
                  | exception Error.Error e -> Error e
                  | wal ->
                      Ok
                        ( { dir; policy; fault; wal },
                          index,
                          {
                            snapshot_epoch = hdr.epoch;
                            final_epoch = Ifmh.epoch index;
                            replayed;
                            skipped;
                            torn_tail_bytes = sc.torn_bytes;
                          } ))))


let append t ~base delta =
  let w = Wire.writer () in
  Ifmh.encode_delta w delta;
  Wal.append ~fault:t.fault t.wal
    { base_epoch = Ifmh.epoch base; delta = Wire.contents w }

let compact t index =
  Snapshot.write ~path:(snapshot_path t.dir) index;
  (* Swap in the fresh log before touching the old handle: Wal.create
     publishes atomically (temp + rename), so if it raises — disk full —
     the old log is intact and the store stays appendable, merely
     overdue for compaction. Closing first would leave t.wal holding a
     dead fd and refuse every republish until restart. *)
  let fresh = Wal.create ~path:(wal_path t.dir) in
  let old = t.wal in
  t.wal <- fresh;
  Wal.close old

let compaction_due t =
  Wal.frames t.wal >= t.policy.max_log_frames
  || Wal.size_bytes t.wal >= t.policy.max_log_bytes

let maybe_compact t index =
  if compaction_due t then (
    compact t index;
    true)
  else false

let log_frames t = Wal.frames t.wal
let fault t = t.fault
let close t = Wal.close t.wal

type report = {
  r_scheme : Ifmh.scheme;
  r_snapshot_epoch : int;
  r_final_epoch : int;
  r_n_leaves : int;
  r_snapshot_bytes : int;
  r_log_frames : int;
  r_replayed : int;
  r_skipped : int;
  r_torn_tail_bytes : int;
}

let fsck dirname =
  match Snapshot.read ~path:(snapshot_path dirname) () with
  | Error e -> Error e
  | Ok (index0, hdr) -> (
      let wp = wal_path dirname in
      let finish ~frames ~replayed ~skipped ~torn ~final =
        Ok
          {
            r_scheme = hdr.scheme;
            r_snapshot_epoch = hdr.epoch;
            r_final_epoch = final;
            r_n_leaves = hdr.n_leaves;
            r_snapshot_bytes = Ioutil.file_size (snapshot_path dirname);
            r_log_frames = frames;
            r_replayed = replayed;
            r_skipped = skipped;
            r_torn_tail_bytes = torn;
          }
      in
      if not (Sys.file_exists wp) then
        finish ~frames:0 ~replayed:0 ~skipped:0 ~torn:0 ~final:hdr.epoch
      else
        match Wal.scan ~path:wp () with
        | Error e -> Error e
        | Ok sc -> (
            if sc.valid_bytes < 8 then
              finish ~frames:0 ~replayed:0 ~skipped:0
                ~torn:sc.valid_bytes ~final:hdr.epoch
            else
              match replay ~file:wp index0 sc.scanned with
              | Error e -> Error e
              | Ok (index, replayed, skipped) ->
                  finish
                    ~frames:(List.length sc.scanned)
                    ~replayed ~skipped ~torn:sc.torn_bytes
                    ~final:(Ifmh.epoch index)))
