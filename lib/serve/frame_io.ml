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

let write fd buf off len =
  try restart_on_eintr (fun () -> Unix.write fd buf off len)
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

(* The body goes straight into one [Bytes] that starts at no more than
   [chunk_cap] and at most doubles as the bytes arrive, so a header
   that claims more than the peer sends never allocates the claim. A
   body that fits one chunk is read in place and returned uncopied. *)
let read_frame ?header_timeout ?body_timeout fd =
  Option.iter (set_recv_timeout fd) header_timeout;
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Eof -> None
  | `Ok ->
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffff_ffff in
    if n > max_frame then failwith "Frame_io: frame too large";
    (* a body deadline equal to the header's is already set *)
    if body_timeout <> header_timeout then Option.iter (set_recv_timeout fd) body_timeout;
    let rec fill buf off =
      if off >= n then buf
      else begin
        let buf =
          if off < Bytes.length buf then buf
          else Bytes.extend buf 0 (min (n - off) (Bytes.length buf))
        in
        match read fd buf off (Bytes.length buf - off) with
        | 0 -> failwith "Frame_io: truncated frame"
        | k -> fill buf (off + k)
      end
    in
    Some (Bytes.unsafe_to_string (fill (Bytes.create (min n chunk_cap)) 0))

let header n =
  if n > max_frame then failwith "Frame_io: frame too large";
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let frame payload = header (String.length payload) ^ payload
let writer () = Aqv_util.Wire.writer_after 4
let framed w = Aqv_util.Wire.contents_with_header w (header (Aqv_util.Wire.size w))

(* writes the first [len] bytes of [buf] *)
let write_all ?timeout fd buf len =
  Option.iter (set_send_timeout fd) timeout;
  let rec go off =
    if off < len then
      match write fd buf off (len - off) with
      | 0 -> failwith "Frame_io: write returned 0"
      | k -> go (off + k)
  in
  go 0;
  len

let write_framed ?timeout fd framed =
  write_all ?timeout fd (Bytes.unsafe_of_string framed) (String.length framed)

let write_writer ?timeout fd w =
  let n = Aqv_util.Wire.size w in
  write_all ?timeout fd (Aqv_util.Wire.buffer_with_header w (header n)) (n + 4)

let write_frame ?timeout fd payload = write_framed ?timeout fd (frame payload)
let write_raw fd s = try ignore (write_framed fd s) with _ -> ()
