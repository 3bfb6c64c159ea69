module Wire = Aqv_util.Wire
module Ifmh = Aqv.Ifmh

type policy = { max_log_frames : int; max_log_bytes : int }

(* Coalesced replay folds the whole log into one rebuild, so recovery
   cost is nearly flat in log length and the log can run much longer
   than under the old frame-by-frame replay (64 frames / 16 MiB). *)
let default_policy = { max_log_frames = 256; max_log_bytes = 64 * 1024 * 1024 }

type t = { dir : string; policy : policy; io : Io.t; wal : Wal.t }

type recovery = {
  scheme : Ifmh.scheme;
  n_leaves : int;
  snapshot_bytes : int;
  snapshot_epoch : int;
  log_frames : int;
  final_epoch : int;
  replayed : int;
  skipped : int;
  torn_tail_bytes : int;
}

let snapshot_path dir = Filename.concat dir "index.bin"
let wal_path dir = Filename.concat dir "wal.log"

let publish ?(policy = default_policy) ?(io = Io.unix) ~dir index =
  if not (io.exists dir) then Io.guard dir (fun () -> io.mkdir dir);
  Snapshot.write ~io ~path:(snapshot_path dir) index;
  { dir; policy; io; wal = Wal.create ~io ~path:(wal_path dir) }

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

(* The read half of start-up, shared by [open_dir] and [fsck]: read the
   snapshot, scan the log (a missing one scans as empty) and replay it.
   Writes nothing. *)
let read_dir io dir =
  let ( let* ) = Result.bind in
  let file = wal_path dir in
  let* index0, hdr = Snapshot.read ~io ~path:(snapshot_path dir) () in
  let* sc =
    if io.exists file then Wal.scan ~io ~path:file
    else Ok { Wal.scanned = []; valid_bytes = 0; torn_bytes = 0 }
  in
  let* index, replayed, skipped = replay ~file index0 sc.scanned in
  Ok
    ( index,
      sc,
      {
        scheme = hdr.scheme;
        n_leaves = hdr.n_leaves;
        snapshot_bytes = hdr.file_bytes;
        snapshot_epoch = hdr.epoch;
        log_frames = List.length sc.scanned;
        final_epoch = Ifmh.epoch index;
        replayed;
        skipped;
        torn_tail_bytes = sc.torn_bytes;
      } )

(* The write half: the only repairs recovery makes. A log without its
   magic (missing, or an interrupted create) is recreated; a torn tail
   is cut off. *)
let open_dir ?(policy = default_policy) ?(io = Io.unix) dir =
  match read_dir io dir with
  | Error e -> Error e
  | Ok (index, sc, recovery) -> (
      let path = wal_path dir in
      match
        if sc.valid_bytes = 0 then Wal.create ~io ~path else Wal.open_append ~io ~path sc
      with
      | exception Error.Error e -> Error e
      | wal -> Ok ({ dir; policy; io; wal }, index, recovery))

let fsck ?(io = Io.unix) dir =
  Result.map (fun (_, _, recovery) -> recovery) (read_dir io dir)

let append t ~base delta =
  let w = Wire.writer () in
  Ifmh.encode_delta w delta;
  Wal.append t.wal { base_epoch = Ifmh.epoch base; delta = Wire.contents w }

(* The snapshot, directory fsync included, is durable before the log is
   cut: if any step of the write fails, the old log is untouched and
   stays appendable (its frames chain on from either snapshot). *)
let compact t index =
  Snapshot.write ~io:t.io ~path:(snapshot_path t.dir) index;
  Wal.reset t.wal

let compaction_due t =
  Wal.frames t.wal >= t.policy.max_log_frames
  || Wal.size_bytes t.wal >= t.policy.max_log_bytes

let maybe_compact t index =
  if compaction_due t then (
    compact t index;
    true)
  else false

let log_frames t = Wal.frames t.wal
let close t = Wal.close t.wal
