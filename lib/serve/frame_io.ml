exception Timeout

let max_frame = 64 * 1024 * 1024
let chunk_cap = 64 * 1024

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* a timeout of 0. disables (blocks forever) *)
let set_recv_timeout fd s = Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
let set_send_timeout fd s = Unix.setsockopt_float fd Unix.SO_SNDTIMEO s

(* A blocking socket with SO_RCVTIMEO/SO_SNDTIMEO set surfaces an
   expired deadline as EAGAIN/EWOULDBLOCK from read(2)/write(2). *)
let read fd buf off len =
  try restart_on_eintr (fun () -> Unix.read fd buf off len)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout

let write fd s off len =
  try restart_on_eintr (fun () -> Unix.write_substring fd s off len)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout

(* Reads exactly [len] bytes; [`Eof] only if zero bytes had arrived. *)
let read_exact fd buf len =
  let rec go off =
    if off >= len then `Ok
    else
      match read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else failwith "Frame_io: truncated frame"
      | k -> go (off + k)
  in
  go 0

let read_frame ?header_timeout ?body_timeout fd =
  Option.iter (set_recv_timeout fd) header_timeout;
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Eof -> None
  | `Ok ->
    let b i = Char.code (Bytes.get hdr i) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then failwith "Frame_io: frame too large";
    Option.iter (set_recv_timeout fd) body_timeout;
    let buf = Buffer.create (min n chunk_cap) in
    let chunk = Bytes.create (min (max n 1) chunk_cap) in
    let rec fill remaining =
      if remaining > 0 then begin
        let k = min remaining (Bytes.length chunk) in
        (match read_exact fd chunk k with
        | `Ok -> ()
        | `Eof -> failwith "Frame_io: truncated frame");
        Buffer.add_subbytes buf chunk 0 k;
        fill (remaining - k)
      end
    in
    fill n;
    Some (Buffer.contents buf)

let frame_bytes payload =
  let n = String.length payload in
  if n > max_frame then failwith "Frame_io: frame too large";
  let b = Bytes.create (n + 4) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match write fd s off (len - off) with
      | 0 -> failwith "Frame_io: write returned 0"
      | k -> go (off + k)
  in
  go 0

let write_frame ?timeout fd payload =
  Option.iter (set_send_timeout fd) timeout;
  let framed = frame_bytes payload in
  write_all fd framed;
  String.length framed

let write_raw fd s = try write_all fd s with _ -> ()
let frame = frame_bytes
