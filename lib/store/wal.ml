module Wire = Aqv_util.Wire

let magic = "AQVWAL1\n"
(* larger length fields are torn/corrupt; matches the serving layer's
   64 MiB frame cap *)
let max_frame_payload = 64 * 1024 * 1024

type frame = { base_epoch : int; delta : string }

type scan_result = {
  scanned : frame list;
  valid_bytes : int;
  torn_bytes : int;
}

type t = {
  path : string;
  file : Io.file;
  mutable size_bytes : int;
  mutable frames : int;
  mutable poisoned : bool;
}

let encode_frame f =
  let w = Wire.writer () in
  Wire.varint w f.base_epoch;
  Wire.bytes w f.delta;
  let payload = Wire.contents w in
  Crc32.be32 (String.length payload)
  ^ Crc32.be32 (Crc32.string payload)
  ^ payload

let io_error path e = Error.fail (Error.Io_error { file = path; reason = e })

let open_append ~io ~path sc =
  let file = Io.guard path (fun () -> io.Io.open_file path Io.Append) in
  let t =
    {
      path;
      file;
      size_bytes = sc.valid_bytes;
      frames = List.length sc.scanned;
      poisoned = false;
    }
  in
  if sc.torn_bytes > 0 then (
    match file.truncate sc.valid_bytes with
    | () -> ( try file.fsync () with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (e, _, _) ->
        (try file.close () with Unix.Unix_error _ -> ());
        io_error path (Unix.error_message e));
  t

let create ~io ~path =
  Io.write_file io ~path magic;
  open_append ~io ~path
    { scanned = []; valid_bytes = String.length magic; torn_bytes = 0 }

(* A failed append may leave a partial frame past the last good offset
   (ENOSPC mid-write, a failed fsync). The engine's contract turns such
   a failure into a Refused and keeps serving — so if the garbage stayed
   on disk, a *retried* append would land after it, get acked, and then
   recovery would either truncate the acked frame away (scan stops at
   the garbage) or refuse the whole log (length field read out of the
   garbage): a durable-before-ack violation either way. Roll the file
   back to the last good offset; if even that fails, poison the handle
   so every later append is refused until recovery rescans the log. *)
let rollback t =
  match t.file.truncate t.size_bytes with
  | () -> ()
  | exception Unix.Unix_error _ -> t.poisoned <- true

let append t frame =
  if t.poisoned then
    io_error t.path "poisoned by an earlier failed append; reopen to recover";
  let data = encode_frame frame in
  (try
     t.file.write data;
     t.file.fsync ()
   with Unix.Unix_error (e, _, _) ->
     rollback t;
     io_error t.path (Unix.error_message e));
  t.size_bytes <- t.size_bytes + String.length data;
  t.frames <- t.frames + 1

(* Compaction's log reset, in place: cut the log back to its magic and
   fsync. The caller has made a snapshot covering every frame durable
   first; until the cut is durable, recovery skips those frames as
   stale. If the cut fails the log is unchanged; if only the fsync
   fails, the next append's fsync makes the cut durable. A durable cut
   leaves no garbage behind, so it also lifts a poisoning. *)
let reset t =
  let m = String.length magic in
  Io.guard t.path (fun () -> t.file.truncate m);
  t.size_bytes <- m;
  t.frames <- 0;
  Io.guard t.path t.file.fsync;
  t.poisoned <- false

let size_bytes t = t.size_bytes
let frames t = t.frames
let close t = try t.file.close () with Unix.Unix_error _ -> ()

let scan ~io ~path =
  match io.Io.read path with
  | exception Unix.Unix_error (e, _, _) -> Error (Io.read_error path e)
  | data ->
      let len = String.length data in
      let mlen = String.length magic in
      if len < mlen then
        if String.equal data (String.sub magic 0 len) then
          (* Interrupted create: nothing usable, recreate. *)
          Ok { scanned = []; valid_bytes = 0; torn_bytes = len }
        else Error (Error.Bad_magic { file = path; found = data })
      else if not (String.equal (String.sub data 0 mlen) magic) then
        Error (Error.Bad_magic { file = path; found = String.sub data 0 mlen })
      else
        let rec go acc n pos =
          if pos >= len then
            Ok { scanned = List.rev acc; valid_bytes = pos; torn_bytes = 0 }
          else if len - pos < 8 then
            Ok
              {
                scanned = List.rev acc;
                valid_bytes = pos;
                torn_bytes = len - pos;
              }
          else
            let plen = Crc32.read_be32 data pos in
            let crc = Crc32.read_be32 data (pos + 4) in
            if plen > max_frame_payload || len - pos - 8 < plen then
              (* Either a torn tail or a corrupted length field; both
                 are handled by truncating to the last good frame. *)
              Ok
                {
                  scanned = List.rev acc;
                  valid_bytes = pos;
                  torn_bytes = len - pos;
                }
            else
              let payload = String.sub data (pos + 8) plen in
              if Crc32.string payload <> crc then
                Error
                  (Error.Checksum_mismatch
                     { file = path; what = Printf.sprintf "log frame %d" n })
              else
                match
                  let r = Wire.reader payload in
                  let base_epoch = Wire.read_varint r in
                  let delta = Wire.read_bytes r in
                  (base_epoch, delta)
                with
                | exception Failure m ->
                    Error
                      (Error.Decode_failed
                         {
                           file = path;
                           reason = Printf.sprintf "log frame %d: %s" n m;
                         })
                | base_epoch, delta ->
                    go ({ base_epoch; delta } :: acc) (n + 1) (pos + 8 + plen)
        in
        go [] 0 mlen
