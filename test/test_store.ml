(* The durable store: snapshot + write-ahead log + recovery.

   The headline property mirrors the serving contract: for any snapshot
   and any replayable delta suffix, recovery lands byte-for-byte on the
   index the in-memory hot-swap path was serving (apply == rebuild makes
   the replay deterministic), and truncating the log at *every* byte
   offset always recovers a valid epoch-prefix of the delta chain —
   never a panic, never a non-prefix epoch. Corruption that is not a
   torn tail (bit flips, foreign frames, epoch gaps) must surface as a
   typed Error, not be served. CI runs this binary under AQV_DOMAINS=1
   and =2. *)

module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Q = Aqv_num.Rational
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Crc32 = Aqv_store.Crc32
module Serror = Aqv_store.Error
module Fault = Aqv_ref.Fault_io
module Io = Aqv_store.Io
module Snapshot = Aqv_store.Snapshot
module Wal = Aqv_store.Wal
module Store = Aqv_store.Store
module Store_ref = Aqv_ref.Store_ref
module Util_ref = Aqv_ref.Util_ref
module Engine = Aqv_serve.Engine
module Stats = Aqv_serve.Stats
module Roundtrip = Aqv_serve.Roundtrip
open Aqv

let check = Alcotest.check

(* one counter of an engine's stats, 0 if absent *)
let stat s key = Option.value (List.assoc_opt key (Stats.to_assoc s)) ~default:0
let hex = Aqv_util.Hex.encode

(* Deterministic fake signer (see test_update.ml): signature identity is
   digest identity, cheap enough for property tests. *)
let fake_keypair =
  {
    Signer.algorithm = Signer.Rsa;
    sign =
      (fun d ->
        Metrics.add_sign ();
        "sig:" ^ d);
    verify = (fun d s -> String.equal s ("sig:" ^ d));
    signature_size = 36;
    public = Signer.Unverifiable;
  }

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let read_file path =
  let ic = open_in_bin path in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  b

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "aqv-store-%d-%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then rm_rf d;
    Unix.mkdir d 0o755;
    d

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let err_name = function
  | Serror.Bad_magic _ -> "Bad_magic"
  | Serror.Checksum_mismatch _ -> "Checksum_mismatch"
  | Serror.Truncated _ -> "Truncated"
  | Serror.Decode_failed _ -> "Decode_failed"
  | Serror.Header_mismatch _ -> "Header_mismatch"
  | Serror.Epoch_gap _ -> "Epoch_gap"
  | Serror.Replay_failed _ -> "Replay_failed"
  | Serror.Io_error _ -> "Io_error"

let expect_error name = function
  | Ok _ -> Alcotest.failf "expected %s, recovery succeeded" name
  | Error e -> check Alcotest.string "typed error" name (err_name e)

(* Random change sequences against the evolving id set (test_update). *)
let gen_changes ~dims prng table k =
  let ids = ref (Array.to_list (Array.map Record.id (Table.records table))) in
  let next_id =
    ref
      (Array.fold_left
         (fun acc r -> max acc (Record.id r + 1))
         1000 (Table.records table))
  in
  let mk_attrs () =
    if dims = 1 then
      [| Q.of_int (Prng.int_in prng (-50) 50); Q.of_int (Prng.int_in prng 0 50) |]
    else Array.init dims (fun _ -> Q.of_int (Prng.int_in prng 0 20))
  in
  let pick () = List.nth !ids (Prng.int prng (List.length !ids)) in
  List.init k (fun _ ->
      match Prng.int prng 3 with
      | 0 ->
        let id = !next_id in
        incr next_id;
        ids := id :: !ids;
        Update.Insert (Record.make ~id ~attrs:(mk_attrs ()) ())
      | 1 when List.length !ids > 1 ->
        let id = pick () in
        ids := List.filter (fun i -> i <> id) !ids;
        Update.Delete id
      | _ -> Update.Modify (Record.make ~id:(pick ()) ~attrs:(mk_attrs ()) ()))

let gen_table ~dims prng =
  let n = if dims = 1 then 5 + Prng.int prng 6 else 4 + Prng.int prng 3 in
  if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
  else Workload.scored ~attr_range:20 ~n ~dims prng

(* Publish [index0] and append [k] random deltas; returns the closed
   store directory plus the expected index image after each prefix:
   images.(i) = save bytes after replaying i deltas. *)
let seed_store ~dims ~scheme prng dir k =
  let table = gen_table ~dims prng in
  let index0 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
  let store = Store.publish ~dir index0 in
  let index = ref index0 and tbl = ref table in
  let images = ref [ save_bytes index0 ] in
  for _ = 1 to k do
    let changes = gen_changes ~dims prng !tbl (1 + Prng.int prng 2) in
    let updated = Ifmh.apply fake_keypair changes !index in
    Store.append store ~base:!index (Ifmh.delta ~changes updated);
    tbl := Update.apply_table changes !tbl;
    index := updated;
    images := save_bytes updated :: !images
  done;
  Store.close store;
  Array.of_list (List.rev !images)

(* ------------------------------ crc32 ------------------------------- *)

let test_crc32 () =
  (* the standard check value for CRC-32/IEEE *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  check Alcotest.string "be32 roundtrip" "\xCB\xF4\x39\x26" (Crc32.be32 0xCBF43926);
  check Alcotest.int "read_be32" 0xCBF43926 (Crc32.read_be32 "\xCB\xF4\x39\x26" 0)

(* ----------------------------- snapshot ----------------------------- *)

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let table = Workload.lines_1d ~n:12 (Prng.create 51L) in
      List.iter
        (fun scheme ->
          let index = Ifmh.build ~scheme ~epoch:3 table fake_keypair in
          let path = Filename.concat dir "snap.bin" in
          Snapshot.write ~io:Io.unix ~path index;
          match Snapshot.read ~io:Io.unix ~path () with
          | Error e -> Alcotest.failf "read failed: %s" (Serror.to_string e)
          | Ok (back, hdr) ->
            check Alcotest.string "byte-identical" (hex (save_bytes index))
              (hex (save_bytes back));
            check Alcotest.int "header epoch" 3 hdr.Snapshot.epoch;
            check Alcotest.int "header n_leaves"
              (Table.size table + 2)
              hdr.Snapshot.n_leaves;
            check Alcotest.bool "header scheme" true (hdr.Snapshot.scheme = scheme))
        [ Ifmh.One_signature; Ifmh.Multi_signature ])

let test_snapshot_errors () =
  with_dir (fun dir ->
      let table = Workload.lines_1d ~n:8 (Prng.create 52L) in
      let index = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let path = Filename.concat dir "snap.bin" in
      Snapshot.write ~io:Io.unix ~path index;
      let good = read_file path in
      (* missing *)
      expect_error "Io_error" (Snapshot.read ~io:Io.unix ~path:(Filename.concat dir "no") ());
      (* bad magic *)
      write_file path ("XXVSNP1\n" ^ String.sub good 8 (String.length good - 8));
      expect_error "Bad_magic" (Snapshot.read ~io:Io.unix ~path ());
      (* truncated body: drop the tail *)
      write_file path (String.sub good 0 (String.length good - 24));
      expect_error "Truncated" (Snapshot.read ~io:Io.unix ~path ());
      (* bit flip in the body *)
      let flipped = Bytes.of_string good in
      let mid = String.length good / 2 in
      Bytes.set flipped mid (Char.chr (Char.code good.[mid] lxor 0x10));
      write_file path (Bytes.to_string flipped);
      expect_error "Checksum_mismatch" (Snapshot.read ~io:Io.unix ~path ());
      (* short read via injected fault *)
      write_file path good;
      let fault = Fault.create () in
      Fault.arm fault (Fault.Short_read (String.length good - 5));
      expect_error "Truncated" (Snapshot.read ~io:(Fault.wrap fault Io.unix) ~path ());
      (* and the pristine file still reads back fine *)
      match Snapshot.read ~io:Io.unix ~path () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pristine read failed: %s" (Serror.to_string e))

(* ------------------------------- wal -------------------------------- *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let wal = Wal.create ~io:Io.unix ~path in
      let frames =
        [
          { Wal.base_epoch = 1; delta = "first delta" };
          { Wal.base_epoch = 2; delta = String.make 300 'x' };
          { Wal.base_epoch = 3; delta = "" };
        ]
      in
      List.iter (Wal.append wal) frames;
      check Alcotest.int "frames counted" 3 (Wal.frames wal);
      check Alcotest.int "bytes counted"
        (String.length (read_file path))
        (Wal.size_bytes wal);
      Wal.close wal;
      match Wal.scan ~io:Io.unix ~path with
      | Error e -> Alcotest.failf "scan failed: %s" (Serror.to_string e)
      | Ok sc ->
        check Alcotest.int "all frames scanned" 3 (List.length sc.Wal.scanned);
        check Alcotest.int "no torn tail" 0 sc.Wal.torn_bytes;
        List.iter2
          (fun (a : Wal.frame) (b : Wal.frame) ->
            check Alcotest.int "base epoch" a.Wal.base_epoch b.Wal.base_epoch;
            check Alcotest.string "delta bytes" a.Wal.delta b.Wal.delta)
          frames sc.Wal.scanned)

(* A short read of the log is a torn tail, never corruption: the frames
   read in full are scanned, the rest is reported as truncatable. *)
let test_wal_short_read () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let wal = Wal.create ~io:Io.unix ~path in
      List.iter (Wal.append wal)
        [ { Wal.base_epoch = 1; delta = "first delta" }; { base_epoch = 2; delta = "second" } ];
      Wal.close wal;
      let len = String.length (read_file path) in
      let scan_short n =
        let fault = Fault.create () in
        Fault.arm fault (Fault.Short_read n);
        match Wal.scan ~io:(Fault.wrap fault Io.unix) ~path with
        | Error e -> Alcotest.failf "short scan failed: %s" (Serror.to_string e)
        | Ok sc -> sc
      in
      let sc = scan_short (len - 3) in
      check Alcotest.int "first frame scanned" 1 (List.length sc.Wal.scanned);
      check Alcotest.int "rest is a torn tail" (len - 3) (sc.Wal.valid_bytes + sc.Wal.torn_bytes);
      let sc = scan_short 3 in
      check Alcotest.int "torn magic: nothing valid" 0 sc.Wal.valid_bytes;
      check Alcotest.int "torn magic: all torn" 3 sc.Wal.torn_bytes;
      check Alcotest.int "file untouched" len (String.length (read_file path)))

(* Coalesced recovery ([Store.open_dir]) against the frame-by-frame
   reference replay in test/ref: the same bytes, final epoch, replayed
   and skipped counts. The reference reads first, since [open_dir]
   truncates a torn tail (the reference only skips it). *)
let recover_vs_ref dir =
  match Store_ref.recover dir with
  | Error e -> Error ("reference recovery errored: " ^ Serror.to_string e)
  | Ok r -> (
    match Store.open_dir dir with
    | Error e -> Error ("coalesced recovery errored: " ^ Serror.to_string e)
    | Ok (store, index, recovery) ->
      Store.close store;
      let mismatch what a b =
        Error (Printf.sprintf "coalesced %s %d, reference %d" what a b)
      in
      if not (String.equal (save_bytes index) (save_bytes r.Store_ref.index)) then
        Error "coalesced bytes differ from the reference replay"
      else if recovery.Store.final_epoch <> r.Store_ref.final_epoch then
        mismatch "final epoch" recovery.Store.final_epoch r.Store_ref.final_epoch
      else if recovery.Store.replayed <> r.Store_ref.replayed then
        mismatch "replayed" recovery.Store.replayed r.Store_ref.replayed
      else if recovery.Store.skipped <> r.Store_ref.skipped then
        mismatch "skipped" recovery.Store.skipped r.Store_ref.skipped
      else Ok (index, recovery))

(* --------------------- torn-tail property test ---------------------- *)

(* Truncate the log at EVERY byte offset: scan must always succeed and
   yield a prefix of the appended frames; full recovery, checked once
   per distinct prefix length, must serve exactly the epoch that prefix
   reaches, byte-identically to the frame-by-frame reference, with
   every surviving frame folded into the one rebuild. *)
let prop_torn_tail ~dims ~scheme seed =
  with_dir (fun dir ->
      let prng = Prng.create (Int64.of_int seed) in
      let k = 1 + Prng.int prng 3 in
      let images = seed_store ~dims ~scheme prng dir k in
      let wal_path = Store_ref.wal_path dir in
      let full = read_file wal_path in
      let len = String.length full in
      let checked = Array.make (k + 1) false in
      let ok = ref true in
      for cut = 0 to len do
        write_file wal_path (String.sub full 0 cut);
        (match Wal.scan ~io:Io.unix ~path:wal_path with
        | Error e ->
          ok := false;
          Printf.printf "scan at cut %d errored: %s\n" cut (Serror.to_string e)
        | Ok sc ->
          let m = List.length sc.Wal.scanned in
          if m > k then begin
            ok := false;
            Printf.printf "cut %d scanned %d > %d frames\n" cut m k
          end
          else if not checked.(m) then begin
            checked.(m) <- true;
            match recover_vs_ref dir with
            | Error msg ->
              ok := false;
              Printf.printf "cut %d: %s\n" cut msg
            | Ok (index, recovery) ->
              if not (String.equal (save_bytes index) images.(m)) then begin
                ok := false;
                Printf.printf "cut %d: recovered bytes differ at prefix %d\n" cut m
              end;
              if recovery.Store.final_epoch <> 1 + m then begin
                ok := false;
                Printf.printf "cut %d: epoch %d, want %d\n" cut
                  recovery.Store.final_epoch (1 + m)
              end;
              if recovery.Store.replayed <> m then begin
                ok := false;
                Printf.printf "cut %d: coalesced %d frame(s), want %d\n" cut
                  recovery.Store.replayed m
              end
          end)
      done;
      (* every prefix length must actually occur (cut at exact frame
         boundaries), so the byte-identity above covered 0..k *)
      Array.iteri
        (fun m seen ->
          if not seen then begin
            ok := false;
            Printf.printf "prefix %d never produced by any cut\n" m
          end)
        checked;
      !ok)

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let torn_tail_tests =
  [
    qtest "torn tail (one-sig, 1-D)" 8 arb_seed
      (prop_torn_tail ~dims:1 ~scheme:Ifmh.One_signature);
    qtest "torn tail (multi-sig, 1-D)" 8 arb_seed
      (prop_torn_tail ~dims:1 ~scheme:Ifmh.Multi_signature);
    qtest "torn tail (one-sig, 2-D)" 6 arb_seed
      (prop_torn_tail ~dims:2 ~scheme:Ifmh.One_signature);
    qtest "torn tail (multi-sig, 2-D)" 6 arb_seed
      (prop_torn_tail ~dims:2 ~scheme:Ifmh.Multi_signature);
  ]

(* ----------------------------- recovery ----------------------------- *)

(* Recovery == hot-swap byte-identity, both schemes, deterministic. *)
let test_recovery_identity () =
  List.iter
    (fun scheme ->
      with_dir (fun dir ->
          let prng = Prng.create 61L in
          let images = seed_store ~dims:1 ~scheme prng dir 3 in
          match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store, index, recovery) ->
            Store.close store;
            check Alcotest.string "recovered = hot-swapped"
              (hex images.(3))
              (hex (save_bytes index));
            check Alcotest.int "snapshot epoch" 1 recovery.Store.snapshot_epoch;
            check Alcotest.int "final epoch" 4 recovery.Store.final_epoch;
            check Alcotest.int "replayed" 3 recovery.Store.replayed;
            check Alcotest.int "nothing skipped" 0 recovery.Store.skipped))
    [ Ifmh.One_signature; Ifmh.Multi_signature ]

let test_recovery_missing_wal () =
  with_dir (fun dir ->
      let prng = Prng.create 62L in
      let images = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature prng dir 0 in
      Sys.remove (Store_ref.wal_path dir);
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        check Alcotest.string "snapshot served" (hex images.(0))
          (hex (save_bytes index));
        check Alcotest.int "no replay" 0 recovery.Store.replayed;
        check Alcotest.bool "wal recreated" true (Sys.file_exists (Store_ref.wal_path dir));
        (* the recreated log accepts appends *)
        let index' =
          Ifmh.apply fake_keypair
            [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 3; Q.of_int 4 |] ()) ]
            index
        in
        Store.append store ~base:index
          (Ifmh.delta
             ~changes:
               [ Update.Modify (Record.make ~id:0 ~attrs:[| Q.of_int 3; Q.of_int 4 |] ()) ]
             index');
        check Alcotest.int "frame landed" 1 (Store.log_frames store);
        Store.close store)

let test_recovery_epoch_gap () =
  with_dir (fun dir ->
      let prng = Prng.create 63L in
      let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature prng dir 0 in
      (* hand-append a frame claiming to apply to epoch 5: CRC-valid,
         but not a continuation of the epoch-1 snapshot *)
      Store_ref.append_frame dir { Wal.base_epoch = 5; delta = "bogus" };
      expect_error "Epoch_gap" (Store.open_dir dir |> Result.map (fun _ -> ())))

(* Torn compaction: snapshot already rewritten at the new epoch, log not
   yet reset. The stale frame must be skipped, not an error. *)
let test_recovery_skips_stale_frames () =
  with_dir (fun dir ->
      let prng = Prng.create 64L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 2 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      Store.close store;
      (* crash mid-compaction: snapshot advances, log keeps the frame *)
      Snapshot.write ~io:Io.unix ~path:(Store.snapshot_path dir) index2;
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        Store.close store;
        check Alcotest.string "epoch-2 snapshot served" (hex (save_bytes index2))
          (hex (save_bytes index));
        check Alcotest.int "stale frame skipped" 1 recovery.Store.skipped;
        check Alcotest.int "nothing replayed" 0 recovery.Store.replayed)

(* Coalescing must decide staleness per frame BEFORE folding: here the
   stale frame inserts id 500, which the advanced snapshot already
   contains — folding it into the net change list would make the single
   rebuild fail with "insert of existing id" (or worse, double-apply).
   The skipped frame must stay out of the fold entirely. *)
let test_coalesce_skips_stale_frame () =
  with_dir (fun dir ->
      let prng = Prng.create 71L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes_a =
        [ Update.Insert (Record.make ~id:500 ~attrs:[| Q.of_int 3; Q.of_int 7 |] ()) ]
      in
      let index2 = Ifmh.apply fake_keypair changes_a index1 in
      Store.append store ~base:index1 (Ifmh.delta ~changes:changes_a index2);
      let changes_b =
        [ Update.Modify (Record.make ~id:500 ~attrs:[| Q.of_int 5; Q.of_int 2 |] ()) ]
      in
      let index3 = Ifmh.apply fake_keypair changes_b index2 in
      Store.append store ~base:index2 (Ifmh.delta ~changes:changes_b index3);
      Store.close store;
      (* crash mid-compaction: the snapshot already carries epoch 2, the
         log still holds the epoch-1 frame ahead of the live one *)
      Snapshot.write ~io:Io.unix ~path:(Store.snapshot_path dir) index2;
      match recover_vs_ref dir with
      | Error msg -> Alcotest.fail msg
      | Ok (index, recovery) ->
        check Alcotest.string "live frame replayed over new snapshot"
          (hex (save_bytes index3))
          (hex (save_bytes index));
        check Alcotest.int "stale frame skipped" 1 recovery.Store.skipped;
        check Alcotest.int "only the live frame coalesced" 1 recovery.Store.replayed)

(* Inserts, deletes, modifies and a delete-then-reinsert spread over
   several frames: the coalesced single-rebuild recovery, the
   frame-by-frame recovery, and the hot-swap path must all land on the
   same bytes. *)
let test_coalesce_mixed_frames () =
  with_dir (fun dir ->
      let prng = Prng.create 72L in
      let table = gen_table ~dims:1 prng in
      let rec2 id a b = Record.make ~id ~attrs:[| Q.of_int a; Q.of_int b |] () in
      let some_id = Record.id (Table.records table).(0) in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let frames =
        [
          [ Update.Insert (rec2 500 2 9); Update.Modify (rec2 some_id 1 1) ];
          [ Update.Delete 500; Update.Insert (rec2 501 (-4) 6) ];
          [ Update.Insert (rec2 500 8 0); Update.Modify (rec2 501 3 3) ];
        ]
      in
      let final =
        List.fold_left
          (fun index changes ->
            let updated = Ifmh.apply fake_keypair changes index in
            Store.append store ~base:index (Ifmh.delta ~changes updated);
            updated)
          index1 frames
      in
      Store.close store;
      match recover_vs_ref dir with
      | Error msg -> Alcotest.fail msg
      | Ok (index, recovery) ->
        check Alcotest.string "recovered = hot-swapped"
          (hex (save_bytes final))
          (hex (save_bytes index));
        check Alcotest.int "all frames coalesced" 3 recovery.Store.replayed;
        check Alcotest.int "final epoch" 4 recovery.Store.final_epoch)

let test_compaction_policy () =
  with_dir (fun dir ->
      let prng = Prng.create 65L in
      let table = gen_table ~dims:1 prng in
      let policy = { Store.max_log_frames = 2; max_log_bytes = max_int } in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~policy ~dir index1 in
      let step tbl index =
        let changes = gen_changes ~dims:1 prng tbl 1 in
        let updated = Ifmh.apply fake_keypair changes index in
        Store.append store ~base:index (Ifmh.delta ~changes updated);
        (Update.apply_table changes tbl, updated)
      in
      let tbl, index2 = step table index1 in
      check Alcotest.bool "not due yet" false (Store.maybe_compact store index2);
      let _, index3 = step tbl index2 in
      check Alcotest.int "two frames pending" 2 (Store.log_frames store);
      check Alcotest.bool "compaction due" true (Store.maybe_compact store index3);
      check Alcotest.int "log reset" 0 (Store.log_frames store);
      Store.close store;
      (* post-compaction recovery: snapshot alone carries epoch 3 *)
      match Store.open_dir ~policy dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        Store.close store;
        check Alcotest.string "compacted snapshot byte-identical"
          (hex (save_bytes index3))
          (hex (save_bytes index));
        check Alcotest.int "no replay needed" 0 recovery.Store.replayed;
        check Alcotest.int "snapshot epoch" 3 recovery.Store.snapshot_epoch)

(* --------------------------- fault drills --------------------------- *)

let test_fault_fail_write () =
  with_dir (fun dir ->
      let prng = Prng.create 66L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let fault = Fault.create () in
      let store = Store.publish ~io:(Fault.wrap fault Io.unix) ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      let log_size () = (Unix.stat (Store_ref.wal_path dir)).Unix.st_size in
      let bytes_before = log_size () in
      Fault.arm fault Fault.Fail_write;
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "append with armed fault must raise"
      | exception Serror.Error (Serror.Io_error _) -> ());
      check Alcotest.int "no bytes written" bytes_before (log_size ());
      (* the fault is one-shot: the retry lands *)
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      check Alcotest.int "retry appended" 1 (Store.log_frames store);
      Store.close store)

let test_fault_torn_write () =
  with_dir (fun dir ->
      let prng = Prng.create 67L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let fault = Fault.create () in
      let store = Store.publish ~io:(Fault.wrap fault Io.unix) ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      Fault.arm fault (Fault.Torn_write 13);
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "torn append must raise"
      | exception Serror.Error (Serror.Io_error _) -> ());
      (* the handle is now poisoned: a retried append would land AFTER
         the garbage, get acked, and then recovery would truncate the
         acked frame away with the garbage — so it must be refused.
         The file system comes back first, so the refusal is the log
         handle's own and not the crashed wrapper's. *)
      Fault.revive fault;
      (match Store.append store ~base:index1 (Ifmh.delta ~changes index2) with
      | () -> Alcotest.fail "append after torn write must be refused"
      | exception Serror.Error (Serror.Io_error _) -> ());
      check Alcotest.int "refused retry not counted" 0 (Store.log_frames store);
      Store.close store;
      (* the 13 garbage bytes are on disk; recovery truncates them and
         serves the pre-crash epoch *)
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        check Alcotest.int "torn tail truncated" 13 recovery.Store.torn_tail_bytes;
        check Alcotest.int "pre-crash epoch served" 1 recovery.Store.final_epoch;
        check Alcotest.string "pre-crash bytes served" (hex (save_bytes index1))
          (hex (save_bytes index));
        (* recovery rescanned and truncated: the reopened log accepts
           the retry at a clean boundary, and the frame survives *)
        Store.append store ~base:index (Ifmh.delta ~changes index2);
        check Alcotest.int "retry after recovery lands" 1 (Store.log_frames store);
        Store.close store;
        match Store.open_dir dir with
        | Error e -> Alcotest.failf "re-recovery failed: %s" (Serror.to_string e)
        | Ok (store, index, recovery) ->
          Store.close store;
          check Alcotest.int "retried frame replayed" 1 recovery.Store.replayed;
          check Alcotest.int "retried epoch recovered" 2 recovery.Store.final_epoch;
          check Alcotest.string "retried bytes recovered" (hex (save_bytes index2))
            (hex (save_bytes index)))

(* A compaction's durable log cut removes the garbage a failed rollback
   left, so it lifts the poisoning: the store is appendable again
   without a restart (a follower installing a snapshot relies on this). *)
let test_fault_compact_unpoisons () =
  with_dir (fun dir ->
      let prng = Prng.create 71L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let fault = Fault.create () in
      let store = Store.publish ~io:(Fault.wrap fault Io.unix) ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      let delta = Ifmh.delta ~changes index2 in
      Fault.arm fault (Fault.Torn_write 13);
      (match Store.append store ~base:index1 delta with
      | () -> Alcotest.fail "torn append must raise"
      | exception Serror.Error (Serror.Io_error _) -> ());
      Fault.revive fault;
      (match Store.append store ~base:index1 delta with
      | () -> Alcotest.fail "append on a poisoned log must be refused"
      | exception Serror.Error (Serror.Io_error _) -> ());
      Store.compact store index1;
      Store.append store ~base:index1 delta;
      check Alcotest.int "append after compaction lands" 1 (Store.log_frames store);
      Store.close store;
      match Store.open_dir dir with
      | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
      | Ok (store, index, recovery) ->
        Store.close store;
        check Alcotest.int "garbage cut by the compaction" 0 recovery.Store.torn_tail_bytes;
        check Alcotest.int "appended epoch recovered" 2 recovery.Store.final_epoch;
        check Alcotest.string "appended bytes recovered" (hex (save_bytes index2))
          (hex (save_bytes index)))

let test_fault_bit_flip () =
  with_dir (fun dir ->
      let prng = Prng.create 68L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let fault = Fault.create () in
      let store = Store.publish ~io:(Fault.wrap fault Io.unix) ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 1 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      (* flip a payload bit (frame layout: 4B len, 4B crc, payload) *)
      Fault.arm fault (Fault.Bit_flip (8 * 10));
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      Store.close store;
      expect_error "Checksum_mismatch" (Store.open_dir dir |> Result.map (fun _ -> ())))

(* ------------------------------- fsck ------------------------------- *)

let recovery_t =
  Alcotest.testable
    (fun ppf (r : Store.recovery) ->
      Format.fprintf ppf
        "{%s; %d leaves; snapshot %d B at epoch %d; %d frame(s); final epoch %d; \
         replayed %d; skipped %d; torn %d}"
        (Ifmh.scheme_name r.scheme) r.n_leaves r.snapshot_bytes r.snapshot_epoch
        r.log_frames r.final_epoch r.replayed r.skipped r.torn_tail_bytes)
    ( = )

let error_t = Alcotest.testable (Fmt.of_to_string Serror.to_string) ( = )

(* Every file of a directory, by name, with its bytes. *)
let dir_image dir =
  List.map
    (fun f -> (f, read_file (Filename.concat dir f)))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* [Store.fsck] is the read half of [Store.open_dir]: it must leave
   every byte of the directory in place, and the [open_dir] that
   follows must return the same recovery, or the same error. Returns
   fsck's verdict. *)
let fsck_agrees dir =
  let before = dir_image dir in
  let verdict = Store.fsck dir in
  check Alcotest.bool "fsck wrote nothing" true (before = dir_image dir);
  let opened =
    Result.map
      (fun (store, _, recovery) ->
        Store.close store;
        recovery)
      (Store.open_dir dir)
  in
  check (Alcotest.result recovery_t error_t) "fsck = open_dir" opened verdict;
  verdict

let fsck_ok dir =
  match fsck_agrees dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "fsck failed: %s" (Serror.to_string e)

let test_fsck_clean () =
  with_dir (fun dir ->
      let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature (Prng.create 81L) dir 3 in
      let r = fsck_ok dir in
      check Alcotest.int "snapshot epoch" 1 r.Store.snapshot_epoch;
      check Alcotest.int "final epoch" 4 r.Store.final_epoch;
      check Alcotest.int "log frames" 3 r.Store.log_frames;
      check Alcotest.int "replayed" 3 r.Store.replayed;
      check Alcotest.int "skipped" 0 r.Store.skipped;
      check Alcotest.int "no torn tail" 0 r.Store.torn_tail_bytes;
      check Alcotest.int "snapshot bytes"
        (String.length (read_file (Store.snapshot_path dir)))
        r.Store.snapshot_bytes)

let test_fsck_torn_tail () =
  with_dir (fun dir ->
      let _ = seed_store ~dims:1 ~scheme:Ifmh.One_signature (Prng.create 82L) dir 2 in
      let wal_path = Store_ref.wal_path dir in
      let clean = read_file wal_path in
      write_file wal_path (clean ^ "garbage");
      let r = fsck_ok dir in
      check Alcotest.int "torn bytes reported" 7 r.Store.torn_tail_bytes;
      check Alcotest.int "frames before the tear replayed" 2 r.Store.replayed;
      (* the open_dir inside fsck_agrees truncated what fsck reported *)
      check Alcotest.string "open_dir truncated the tail" (hex clean)
        (hex (read_file wal_path));
      (* a log whose magic is torn: fsck reports it, open_dir recreates it *)
      write_file wal_path (String.sub clean 0 5);
      let r = fsck_ok dir in
      check Alcotest.int "torn magic reported" 5 r.Store.torn_tail_bytes;
      check Alcotest.int "no frames" 0 r.Store.log_frames;
      check Alcotest.string "open_dir recreated the log" (hex "AQVWAL1\n")
        (hex (read_file wal_path)))

let test_fsck_stale_frames () =
  with_dir (fun dir ->
      let prng = Prng.create 83L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let store = Store.publish ~dir index1 in
      let changes = gen_changes ~dims:1 prng table 2 in
      let index2 = Ifmh.apply fake_keypair changes index1 in
      Store.append store ~base:index1 (Ifmh.delta ~changes index2);
      Store.close store;
      (* interrupted compaction: snapshot advanced, log not reset *)
      Snapshot.write ~io:Io.unix ~path:(Store.snapshot_path dir) index2;
      let r = fsck_ok dir in
      check Alcotest.int "stale frame skipped" 1 r.Store.skipped;
      check Alcotest.int "nothing replayed" 0 r.Store.replayed;
      check Alcotest.int "stale frame still counted" 1 r.Store.log_frames;
      check Alcotest.int "snapshot epoch served" 2 r.Store.final_epoch)

let test_fsck_epoch_gap () =
  with_dir (fun dir ->
      let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature (Prng.create 84L) dir 1 in
      Store_ref.append_frame dir { Wal.base_epoch = 7; delta = "bogus" };
      expect_error "Epoch_gap" (fsck_agrees dir))

(* --------------------------- payload fuzz --------------------------- *)

(* The decoders behind the log's CRC: byte mutants of each payload of a
   3-frame log, written back with their length and CRC recomputed so
   that the scan hands them to replay. [Store.fsck] and then
   [Store.open_dir] must each give [Ok] or a typed error, never another
   exception, and agree. *)
let wal_payloads log =
  let rec go pos acc =
    if pos >= String.length log then List.rev acc
    else
      let len = Crc32.read_be32 log pos in
      go (pos + 8 + len) (String.sub log (pos + 8) len :: acc)
  in
  go (String.length "AQVWAL1\n") []

let wal_frame payload =
  Crc32.be32 (String.length payload) ^ Crc32.be32 (Crc32.string payload) ^ payload

(* Seeds a 3-frame multi-signature store in [dir] and calls [f i mutated]
   for each byte mutant of frame [i]'s payload, with the store written
   back holding it (length and CRC recomputed). *)
let iter_wal_mutants dir f =
  let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature (Prng.create 85L) dir 3 in
  let wal_path = Store_ref.wal_path dir and snapshot_path = Store.snapshot_path dir in
  let log = read_file wal_path and snapshot = read_file snapshot_path in
  let payloads = wal_payloads log in
  check Alcotest.int "three frames" 3 (List.length payloads);
  List.iteri
    (fun i payload ->
      Util_ref.iter_mutants ~seed:(Int64.of_int (850 + i)) ~attempts:40 payload (fun mutated ->
          write_file snapshot_path snapshot;
          write_file wal_path
            (String.concat ""
               ("AQVWAL1\n"
               :: List.mapi (fun j p -> wal_frame (if j = i then mutated else p)) payloads));
          f i mutated))
    payloads

let test_wal_payload_fuzz () =
  with_dir (fun dir ->
      let verdicts = Hashtbl.create 8 in
      iter_wal_mutants dir (fun i mutated ->
          let verdict =
            match fsck_agrees dir with
            | Ok r -> Printf.sprintf "Ok at epoch %d" r.Store.final_epoch
            | Error e -> err_name e
            | exception e ->
              Alcotest.failf "frame %d mutant %s raised %s" i (hex mutated)
                (Printexc.to_string e)
          in
          Hashtbl.replace verdicts verdict ());
      (* the mutants reached the replay: some were refused by it *)
      check Alcotest.bool "some mutants refused at replay" true
        (Hashtbl.mem verdicts "Decode_failed" || Hashtbl.mem verdicts "Replay_failed"))

(* A frame altered and its CRC recomputed can recover [Ok] (the CRC
   guards against accidents only, and recovery checks no signature), to
   an index other than the one appended. That costs availability only:
   for each such mutant, a verifying client asks top-1..3 and a range
   query at a point of every honest subdomain and accepts no reply that
   differs from the honest store's; where the index differs, it rejects
   some. *)
let test_wal_tamper_availability_only () =
  let encoded reply =
    let w = Wire.writer () in
    Protocol.encode_reply w reply;
    Wire.contents w
  in
  let recovered dir =
    match Store.open_dir dir with
    | Ok (store, index, _) ->
      Store.close store;
      Some index
    | Error _ -> None
  in
  (* the store as appended, seeded alike in a directory of its own *)
  let index =
    with_dir (fun dir ->
        let _ = seed_store ~dims:1 ~scheme:Ifmh.Multi_signature (Prng.create 85L) dir 3 in
        Option.get (recovered dir))
  in
  let table = Ifmh.table index in
  let queries =
    Array.to_list (Itree.leaves (Ifmh.itree index))
    |> List.concat_map (fun leaf ->
           let x = Aqv_num.Region.interior_point leaf.Itree.region in
           let l, u = Workload.range_for_result_size table ~x ~size:2 in
           Query.range ~x ~l ~u :: List.init 3 (fun k -> Query.top_k ~x ~k:(k + 1)))
  in
  let bundle = Protocol.bundle_of_index index Signer.Unverifiable in
  let ctx =
    Client.make_ctx ~template:bundle.Protocol.template ~domain:bundle.Protocol.domain
      ~verify_signature:fake_keypair.Signer.verify
  in
  let tampered = ref 0 in
  with_dir (fun dir ->
      iter_wal_mutants dir (fun i mutated ->
          match recovered dir with
          | None -> ()
          | Some served ->
            let rejected =
              List.filter
                (fun q ->
                  let request = Protocol.Run_query q in
                  match Protocol.handle served request with
                  | Protocol.Answer resp when Client.accepts ctx q resp ->
                    if encoded (Protocol.Answer resp) <> encoded (Protocol.handle index request)
                    then
                      Alcotest.failf "frame %d mutant %s: a reply unlike the honest one accepted" i
                        (hex mutated);
                    false
                  | _ -> true)
                queries
            in
            if not (String.equal (save_bytes served) (save_bytes index)) then begin
              incr tampered;
              if rejected = [] then
                Alcotest.failf "frame %d mutant %s: tampered index, every reply accepted" i
                  (hex mutated)
            end));
  check Alcotest.bool "some mutants recovered a tampered index" true (!tampered > 0)

(* -------------------------- crash explorer -------------------------- *)

(* Every crash point of a store run, on the recording in-memory file
   system of test/ref: after each operation the run issued, and for
   every disk state the crash model allows, [Store.fsck] (which must
   write nothing) and [Store.open_dir] agree, and they recover an epoch
   between the last acked and the last attempted one, with the bytes of
   the owner's index at that epoch. A typed error is allowed only for a
   crash before [Store.publish] returned. QCHECK_LONG=1 cuts each
   unsynced write at every byte, not at a handful of points. *)

module Mem_io = Aqv_ref.Mem_io

let every_byte = List.mem (Sys.getenv_opt "QCHECK_LONG") [ Some "1"; Some "true" ]
let store_dir = "/store"

type step = Append | Failed_append | Compact

type run = {
  log : Mem_io.op array;
  marks : (int * int option * int) list;
      (** after each change, in order: operations issued so far, the
          last acked epoch and the last attempted one *)
  images : string array;  (** the owner's save bytes; epoch e at e - 1 *)
}

(* Publish the owner's epoch-1 index, then run [steps] over the
   in-memory store: an append acks the owner's next epoch, a failed
   append is refused by an injected write fault, a compaction folds the
   log at the acked epoch. With [dir_fsync_fails = i], the i-th
   directory fsync fails; only then may publish or compaction raise.
   The owner's table is 1-D, under [scheme] (multi-signature by
   default). *)
let drive ?dir_fsync_fails ?(scheme = Ifmh.Multi_signature) prng steps =
  let table = gen_table ~dims:1 prng in
  let n = List.length steps in
  let indexes = Array.make (n + 1) (Ifmh.build ~scheme ~epoch:1 table fake_keypair) in
  let deltas =
    let tbl = ref table in
    Array.init n (fun i ->
        let changes = gen_changes ~dims:1 prng !tbl (1 + Prng.int prng 2) in
        indexes.(i + 1) <- Ifmh.apply fake_keypair changes indexes.(i);
        tbl := Update.apply_table changes !tbl;
        Ifmh.delta ~changes indexes.(i + 1))
  in
  let mem = Mem_io.create () in
  Option.iter (Mem_io.fail_dir_fsync mem) dir_fsync_fails;
  let fault = Fault.create () in
  let io = Fault.wrap fault (Mem_io.io mem) in
  let marks = ref [] and acked = ref None and attempted = ref 1 in
  let mark () = marks := (Mem_io.op_count mem, !acked, !attempted) :: !marks in
  let may_fail = Option.is_some dir_fsync_fails in
  mark ();
  (match Store.publish ~io ~dir:store_dir indexes.(0) with
  | exception Serror.Error _ when may_fail -> ()
  | store ->
    acked := Some 1;
    mark ();
    List.iter
      (fun step ->
        let e = Option.get !acked in
        match step with
        | Compact -> (
          try Store.compact store indexes.(e - 1) with Serror.Error _ when may_fail -> ())
        | Append | Failed_append -> (
          let refused = step = Failed_append in
          attempted := max !attempted (e + 1);
          mark ();
          if refused then Fault.arm fault Fault.Fail_write;
          match Store.append store ~base:indexes.(e - 1) deltas.(e - 1) with
          | () when refused -> Alcotest.fail "append with an armed fault must raise"
          | () ->
            acked := Some (e + 1);
            mark ()
          | exception Serror.Error _ when refused -> ()))
      steps);
  { log = Mem_io.ops mem; marks = List.rev !marks; images = Array.map save_bytes indexes }

(* fsck and open_dir on fresh copies of one crash image: their common
   verdict (the recovered epoch and bytes, or the typed error), or why
   they differ. *)
let recover_image img =
  let fs () = Mem_io.of_image ~dirs:[ store_dir ] img in
  let m = fs () in
  let checked = Store.fsck ~io:(Mem_io.io m) store_dir in
  let describe = function
    | Ok r -> Printf.sprintf "epoch %d" r.Store.final_epoch
    | Error e -> Serror.to_string e
  in
  if Mem_io.op_count m > 0 then Error "fsck wrote to the disk"
  else
    match Store.open_dir ~io:(Mem_io.io (fs ())) store_dir with
    | Ok (store, index, r) when checked = Ok r ->
      Store.close store;
      Ok (Ok (r.Store.final_epoch, save_bytes index))
    | Error e when checked = Error e -> Ok (Error e)
    | opened ->
      Error
        (Printf.sprintf "fsck: %s; open_dir: %s" (describe checked)
           (describe (Result.map (fun (_, _, r) -> r) opened)))

(* Explore every crash point of [run]; returns the failures, first
   first, with the number of crash states checked. *)
let explore ~model run =
  let memo = Hashtbl.create 256 and failures = ref [] and states = ref 0 in
  for k = 0 to Array.length run.log do
    let _, acked, attempted =
      List.fold_left (fun m ((c, _, _) as m') -> if c <= k then m' else m) (List.hd run.marks) run.marks
    in
    List.iter
      (fun img ->
        incr states;
        let verdict =
          match Hashtbl.find_opt memo img with
          | Some v -> v
          | None ->
            let v = recover_image img in
            Hashtbl.add memo img v;
            v
        in
        let fail msg =
          failures :=
            Printf.sprintf "crash after op %d of %d (acked %s, attempted %d): %s" k
              (Array.length run.log)
              (Option.fold ~none:"none" ~some:string_of_int acked)
              attempted msg
            :: !failures
        in
        match (verdict, acked) with
        | Error msg, _ -> fail msg
        | Ok (Error e), Some _ -> fail ("typed error after publish returned: " ^ Serror.to_string e)
        | Ok (Error _), None -> ()
        | Ok (Ok (e, bytes)), _ ->
          if e < Option.value acked ~default:1 || e > attempted then
            fail (Printf.sprintf "recovered epoch %d" e)
          else if not (String.equal bytes run.images.(e - 1)) then
            fail (Printf.sprintf "epoch %d bytes differ from the owner's index" e))
      (Mem_io.crash_states ~model ~every_byte run.log k)
  done;
  (List.rev !failures, !states)

let expect_explored what run (failures, states) =
  Printf.printf "%s: %d operations, %d crash states\n" what (Array.length run.log) states;
  match failures with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%s: %d of %d crash states fail; first: %s" what (List.length failures)
      states first

(* publish -> 3 appends -> compact -> 2 appends *)
let fixed_run = [ Append; Append; Append; Compact; Append; Append ]

let test_explore model () =
  let run = drive (Prng.create 91L) fixed_run in
  check Alcotest.int "six epochs acked" 6
    (match List.rev run.marks with (_, Some e, _) :: _ -> e | _ -> 0);
  expect_explored "fixed run" run (explore ~model run)

(* The same run on a one-signature table: one signed root per epoch,
   so the snapshot and every delta frame have another shape. *)
let test_explore_one_signature () =
  let run = drive ~scheme:Ifmh.One_signature (Prng.create 91L) fixed_run in
  List.iter
    (fun (name, model) ->
      expect_explored ("one-signature fixed run, " ^ name) run (explore ~model run))
    [ ("reordering model", Mem_io.Reordering); ("in-order model", Mem_io.In_order) ]

(* Each directory fsync of the run fails once in turn. A failed fsync of
   the compacted snapshot's directory must stop compaction before the
   log reset: if the reset went ahead, a crash that keeps the truncated
   log but not the snapshot rename would lose every frame acked since
   publish. The appends after it must still be acked. *)
let test_explore_dir_fsync_fails () =
  let dir_fsyncs =
    Array.fold_left
      (fun n op -> match op with Mem_io.Fsync_dir _ -> n + 1 | _ -> n)
      0 (drive (Prng.create 91L) fixed_run).log
  in
  for i = 0 to dir_fsyncs - 1 do
    let run = drive ~dir_fsync_fails:i (Prng.create 91L) fixed_run in
    expect_explored
      (Printf.sprintf "directory fsync %d fails" i)
      run
      (explore ~model:Mem_io.Reordering run)
  done

let arb_run =
  QCheck.make
    ~print:(fun (seed, steps) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat " "
           (List.map
              (function Append -> "append" | Failed_append -> "failed-append" | Compact -> "compact")
              steps)))
    QCheck.Gen.(
      pair (int_bound 1_000_000)
        (list_size (int_range 2 8) (oneofl [ Append; Append; Failed_append; Compact ])))

let explorer_tests =
  [
    Alcotest.test_case "fixed run, reordering model" `Quick (test_explore Mem_io.Reordering);
    Alcotest.test_case "fixed run, in-order model" `Quick (test_explore Mem_io.In_order);
    Alcotest.test_case "one-signature table, both models" `Quick test_explore_one_signature;
    Alcotest.test_case "a directory fsync fails" `Quick test_explore_dir_fsync_fails;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2 ~long_factor:10 ~name:"random runs, both models" arb_run
         (fun (seed, steps) ->
           let run = drive (Prng.create (Int64.of_int seed)) steps in
           List.for_all
             (fun model ->
               let failures, _ = explore ~model run in
               List.iter print_endline failures;
               failures = [])
             [ Mem_io.Reordering; Mem_io.In_order ]));
  ]

(* ----------------- durable-before-ack over the wire ----------------- *)

let await deadline_s pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let test_engine_durable_before_ack () =
  with_dir (fun dir ->
      let prng = Prng.create 69L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let fault = Fault.create () in
      let store = Store.publish ~io:(Fault.wrap fault Io.unix) ~dir index1 in
      let config =
        { Engine.default_config with port = 0; store = Some store; drain_timeout = 2. }
      in
      let engine = Engine.create config index1 in
      let th = Thread.create Engine.serve engine in
      Fun.protect
        ~finally:(fun () ->
          Engine.stop engine;
          Thread.join th;
          Store.close store)
        (fun () ->
          let port = Engine.port engine in
          let changes = gen_changes ~dims:1 prng table 1 in
          let index2 = Ifmh.apply fake_keypair changes index1 in
          let delta = Ifmh.delta ~changes index2 in
          (* 1: append fails -> Refused, no ack, serving state untouched *)
          Fault.arm fault Fault.Fail_write;
          (match Roundtrip.call ~port (Protocol.Republish delta) with
          | Protocol.Refused m ->
            check Alcotest.bool "refusal names the store" true
              (String.length m >= 6 && String.sub m 0 6 = "Store:")
          | _ -> Alcotest.fail "expected Refused on injected write failure");
          check Alcotest.int "epoch unchanged" 1 (Ifmh.epoch (Engine.index engine));
          check Alcotest.int "no log append counted" 0
            (stat (Engine.stats engine) "log_appends");
          check Alcotest.int "refusal counted" 1
            (stat (Engine.stats engine) "replies_refused");
          (* 2: same delta, healthy store -> logged, swapped, acked *)
          (match Roundtrip.call ~port (Protocol.Republish delta) with
          | Protocol.Republished 2 -> ()
          | _ -> Alcotest.fail "expected Republished 2");
          check Alcotest.bool "swap visible" true
            (await 2. (fun () -> Ifmh.epoch (Engine.index engine) = 2));
          check Alcotest.int "log append counted" 1
            (stat (Engine.stats engine) "log_appends");
          check Alcotest.int "frame durable" 1 (Store.log_frames store);
          (* 3: recovery from that store serves the acked bytes *)
          let served = save_bytes (Engine.index engine) in
          (match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store2, recovered, recovery) ->
            Store.close store2;
            check Alcotest.int "recovered epoch" 2 recovery.Store.final_epoch;
            check Alcotest.string "recovered = served" (hex served)
              (hex (save_bytes recovered)));
          (* 4: a torn append refuses the republish AND poisons the log,
             so the retry is refused too — it can never be acked with
             its frame sitting after garbage that recovery truncates *)
          let table2 = Update.apply_table changes table in
          let changes2 = gen_changes ~dims:1 prng table2 1 in
          let index3 = Ifmh.apply fake_keypair changes2 index2 in
          let delta2 = Ifmh.delta ~changes:changes2 index3 in
          Fault.arm fault (Fault.Torn_write 11);
          (match Roundtrip.call ~port (Protocol.Republish delta2) with
          | Protocol.Refused _ -> ()
          | _ -> Alcotest.fail "expected Refused on torn append");
          Fault.revive fault;
          (match Roundtrip.call ~port (Protocol.Republish delta2) with
          | Protocol.Refused _ -> ()
          | _ -> Alcotest.fail "expected Refused from poisoned log");
          check Alcotest.int "epoch still 2" 2 (Ifmh.epoch (Engine.index engine));
          match Store.open_dir dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store3, recovered, recovery) ->
            Store.close store3;
            check Alcotest.int "garbage truncated" 11 recovery.Store.torn_tail_bytes;
            check Alcotest.int "acked epoch recovered" 2 recovery.Store.final_epoch;
            check Alcotest.string "recovered = served (post-torn)" (hex served)
              (hex (save_bytes recovered))))

let test_engine_background_compaction () =
  with_dir (fun dir ->
      let prng = Prng.create 70L in
      let table = gen_table ~dims:1 prng in
      let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
      let policy = { Store.max_log_frames = 1; max_log_bytes = max_int } in
      let store = Store.publish ~policy ~dir index1 in
      let config =
        { Engine.default_config with port = 0; store = Some store; drain_timeout = 2. }
      in
      let engine = Engine.create config index1 in
      let th = Thread.create Engine.serve engine in
      Fun.protect
        ~finally:(fun () ->
          Engine.stop engine;
          Thread.join th;
          Store.close store)
        (fun () ->
          let port = Engine.port engine in
          let changes = gen_changes ~dims:1 prng table 1 in
          let index2 = Ifmh.apply fake_keypair changes index1 in
          (match
             Roundtrip.call ~port (Protocol.Republish (Ifmh.delta ~changes index2))
           with
          | Protocol.Republished 2 -> ()
          | _ -> Alcotest.fail "expected Republished 2");
          (* the ack does not wait for the snapshot rewrite: compaction
             lands in the background shortly after and resets the log *)
          check Alcotest.bool "compaction happened" true
            (await 2. (fun () -> stat (Engine.stats engine) "compactions" = 1));
          check Alcotest.bool "log reset" true
            (await 2. (fun () -> Store.log_frames store = 0));
          match Store.open_dir ~policy dir with
          | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
          | Ok (store2, recovered, recovery) ->
            Store.close store2;
            check Alcotest.int "compacted snapshot epoch" 2
              recovery.Store.snapshot_epoch;
            check Alcotest.int "no replay needed" 0 recovery.Store.replayed;
            check Alcotest.string "compacted = served" (hex (save_bytes index2))
              (hex (save_bytes recovered))))

let () =
  Alcotest.run "aqv_store"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32 ]);
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "typed errors" `Quick test_snapshot_errors;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "short read" `Quick test_wal_short_read;
        ] );
      ("torn-tail", torn_tail_tests);
      ( "recovery",
        [
          Alcotest.test_case "byte-identity" `Quick test_recovery_identity;
          Alcotest.test_case "missing wal" `Quick test_recovery_missing_wal;
          Alcotest.test_case "epoch gap" `Quick test_recovery_epoch_gap;
          Alcotest.test_case "stale frames skipped" `Quick
            test_recovery_skips_stale_frames;
          Alcotest.test_case "stale frame not folded" `Quick
            test_coalesce_skips_stale_frame;
          Alcotest.test_case "mixed frames coalesce" `Quick
            test_coalesce_mixed_frames;
          Alcotest.test_case "compaction policy" `Quick test_compaction_policy;
        ] );
      ( "faults",
        [
          Alcotest.test_case "failed append" `Quick test_fault_fail_write;
          Alcotest.test_case "torn append" `Quick test_fault_torn_write;
          Alcotest.test_case "compaction lifts poisoning" `Quick
            test_fault_compact_unpoisons;
          Alcotest.test_case "bit flip" `Quick test_fault_bit_flip;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean store" `Quick test_fsck_clean;
          Alcotest.test_case "torn tail" `Quick test_fsck_torn_tail;
          Alcotest.test_case "stale frames" `Quick test_fsck_stale_frames;
          Alcotest.test_case "epoch gap" `Quick test_fsck_epoch_gap;
          Alcotest.test_case "wal payload mutants" `Quick test_wal_payload_fuzz;
          Alcotest.test_case "tampered wal frame costs availability only" `Quick
            test_wal_tamper_availability_only;
        ] );
      ("crash explorer", explorer_tests);
      ( "engine",
        [
          Alcotest.test_case "durable-before-ack" `Quick
            test_engine_durable_before_ack;
          Alcotest.test_case "background compaction" `Quick
            test_engine_background_compaction;
        ] );
    ]
