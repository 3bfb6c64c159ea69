module Wire = Aqv_util.Wire

let magic = "AQVWAL1\n"
(* larger length fields are torn/corrupt; matches the serving layer's
   64 MiB frame cap *)
let max_frame_payload = 64 * 1024 * 1024

type frame = { base_epoch : int; delta : string }

type t = {
  path : string;
  fd : Unix.file_descr;
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

let open_append ~path ~bytes ~frames =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
  | exception Unix.Unix_error (e, _, _) -> io_error path (Unix.error_message e)
  | fd -> { path; fd; size_bytes = bytes; frames; poisoned = false }

let create ~path =
  Ioutil.atomic_write_file ~path magic;
  open_append ~path ~bytes:(String.length magic) ~frames:0

let flip_bit k s =
  let b = Bytes.of_string s in
  let i = k / 8 and j = k mod 8 in
  if i < Bytes.length b then
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
  Bytes.to_string b

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
  match Unix.ftruncate t.fd t.size_bytes with
  | () -> ()
  | exception Unix.Unix_error _ -> t.poisoned <- true

let write_all t data n =
  match Unix.write_substring t.fd data 0 n with
  | exception Unix.Unix_error (e, _, _) ->
      rollback t;
      io_error t.path (Unix.error_message e)
  | w -> if w <> n then (rollback t; io_error t.path "short write")

let append ?fault t frame =
  if t.poisoned then
    io_error t.path "poisoned by an earlier failed append; reopen to recover";
  let data = encode_frame frame in
  let data =
    match Option.bind fault Fault.take_write with
    | Some Fault.Fail_write -> io_error t.path "injected write failure"
    | Some (Fault.Torn_write n) ->
        (* A crash mid-append: some prefix reaches the disk and the
           caller never hears back. Unlike a live partial-write failure,
           the garbage must STAY on disk (it is the artifact recovery
           exists to truncate), so instead of rolling back we poison the
           handle — a real crashed process could not append either. *)
        write_all t data (min n (String.length data));
        (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
        t.poisoned <- true;
        io_error t.path "injected torn write"
    | Some (Fault.Bit_flip k) ->
        (* Silent media corruption: the write "succeeds". *)
        flip_bit k data
    | Some (Fault.Short_read _) | None -> data
  in
  let n = String.length data in
  write_all t data n;
  (try Unix.fsync t.fd with Unix.Unix_error (e, _, _) ->
    rollback t;
    io_error t.path (Unix.error_message e));
  t.size_bytes <- t.size_bytes + n;
  t.frames <- t.frames + 1

let size_bytes t = t.size_bytes
let frames t = t.frames
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type scan_result = {
  scanned : frame list;
  valid_bytes : int;
  torn_bytes : int;
}

let scan ?fault ~path () =
  match Ioutil.read_file ?fault path with
  | exception Sys_error m -> Error (Error.Io_error { file = path; reason = m })
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

let truncate ~path n =
  match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
  | exception Unix.Unix_error (e, _, _) -> io_error path (Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.ftruncate fd n with
          | exception Unix.Unix_error (e, _, _) ->
              io_error path (Unix.error_message e)
          | () -> (
              try Unix.fsync fd with Unix.Unix_error _ -> ()))
