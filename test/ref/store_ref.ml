(* Frame-by-frame store recovery: the reference that the coalesced
   [Store.open_dir] must match byte for byte. Reads the snapshot, scans
   the log (a torn tail is simply not scanned), and applies each
   surviving frame with its own [Ifmh.apply_delta] — one rebuild per
   frame. Same rules as the store: a frame whose base epoch is below
   the current one is a leftover of an interrupted compaction and is
   skipped; one that jumps ahead is an [Epoch_gap]. Read-only: the log
   is neither truncated nor reopened. *)

module Wire = Aqv_util.Wire
module Error = Aqv_store.Error
module Snapshot = Aqv_store.Snapshot
module Wal = Aqv_store.Wal
module Store = Aqv_store.Store
module Io = Aqv_store.Io
open Aqv

(* The log file of a store directory, as [Store] lays it out. *)
let wal_path dir = Filename.concat dir "wal.log"

(* Append one frame to a store's clean log through [Wal] itself: scan
   for the valid length, reopen for append, write, close. *)
let append_frame dir frame =
  let path = wal_path dir in
  match Wal.scan ~io:Io.unix ~path with
  | Error e -> failwith ("Store_ref.append_frame: " ^ Error.to_string e)
  | Ok sc ->
    let wal = Wal.open_append ~io:Io.unix ~path sc in
    Fun.protect ~finally:(fun () -> Wal.close wal) (fun () -> Wal.append wal frame)

type recovery = { index : Ifmh.t; final_epoch : int; replayed : int; skipped : int }

let replay ?pool ~file index0 frames =
  let rec go i index replayed skipped = function
    | [] -> Ok { index; final_epoch = Ifmh.epoch index; replayed; skipped }
    | (f : Wal.frame) :: rest -> (
        let cur = Ifmh.epoch index in
        if f.base_epoch < cur then go (i + 1) index replayed (skipped + 1) rest
        else if f.base_epoch > cur then
          Error
            (Error.Epoch_gap
               { file; frame = i; base_epoch = f.base_epoch; current_epoch = cur })
        else
          match Ifmh.apply_delta ?pool (Ifmh.decode_delta (Wire.reader f.delta)) index with
          | exception (Failure m | Invalid_argument m) ->
              Error (Error.Replay_failed { file; frame = i; reason = m })
          | index' -> go (i + 1) index' (replayed + 1) skipped rest)
  in
  go 0 index0 0 0 frames

let recover ?pool dir =
  match Snapshot.read ?pool ~io:Io.unix ~path:(Store.snapshot_path dir) () with
  | Error e -> Error e
  | Ok (index0, _) -> (
      let file = wal_path dir in
      if not (Sys.file_exists file) then replay ~file index0 []
      else
        match Wal.scan ~io:Io.unix ~path:file with
        | Error e -> Error e
        | Ok sc -> replay ?pool ~file index0 sc.Wal.scanned)
