module Wire = Aqv_util.Wire
module Ifmh = Aqv.Ifmh

let magic = "AQVSNP1\n"

type header = {
  scheme : Ifmh.scheme;
  epoch : int;
  n_leaves : int;
  file_bytes : int;
}

let scheme_tag = function
  | Ifmh.One_signature -> 1
  | Ifmh.Multi_signature -> 2

let scheme_of_tag = function
  | 1 -> Some Ifmh.One_signature
  | 2 -> Some Ifmh.Multi_signature
  | _ -> None

let n_leaves index = Aqv_db.Table.size (Ifmh.table index) + 2

let encode index =
  let body =
    let w = Wire.writer () in
    Ifmh.save w index;
    Wire.contents w
  in
  let w = Wire.writer () in
  Wire.u8 w (scheme_tag (Ifmh.scheme index));
  Wire.varint w (Ifmh.epoch index);
  Wire.varint w (n_leaves index);
  Wire.bytes w body;
  let payload = Wire.contents w in
  magic ^ payload ^ Crc32.be32 (Crc32.string payload)

let write ~io ~path index = Io.write_file io ~path (encode index)

let read ?pool ~io ~path () =
  match io.Io.read path with
  | exception Unix.Unix_error (e, _, _) -> Error (Io.read_error path e)
  | data -> (
      let len = String.length data in
      let mlen = String.length magic in
      if len < mlen then
        if String.equal data (String.sub magic 0 len) then
          Error (Error.Truncated { file = path; reason = "shorter than magic" })
        else Error (Error.Bad_magic { file = path; found = data })
      else if not (String.equal (String.sub data 0 mlen) magic) then
        Error (Error.Bad_magic { file = path; found = String.sub data 0 mlen })
      else if len < mlen + 4 then
        Error (Error.Truncated { file = path; reason = "shorter than magic + crc" })
      else
        let payload = String.sub data mlen (len - mlen - 4) in
        let stored_crc = Crc32.read_be32 data (len - 4) in
        (* Structural parse before the CRC check: a short read shows up
           as lengths that no longer fit, which we want to report as
           Truncated rather than as a checksum failure. *)
        match
          let r = Wire.reader payload in
          let tag = Wire.read_u8 r in
          let epoch = Wire.read_varint r in
          let nl = Wire.read_varint r in
          let body = Wire.read_bytes r in
          (tag, epoch, nl, body)
        with
        | exception Failure m ->
            Error (Error.Truncated { file = path; reason = m })
        | tag, epoch, nl, body -> (
            if Crc32.string payload <> stored_crc then
              Error
                (Error.Checksum_mismatch { file = path; what = "snapshot payload" })
            else
              match scheme_of_tag tag with
              | None ->
                  Error
                    (Error.Header_mismatch
                       {
                         file = path;
                         reason = Printf.sprintf "unknown scheme tag %d" tag;
                       })
              | Some scheme -> (
                  match Ifmh.load ?pool (Wire.reader body) with
                  | exception Failure m ->
                      Error (Error.Decode_failed { file = path; reason = m })
                  | index ->
                      let hdr =
                        {
                          scheme;
                          epoch;
                          n_leaves = nl;
                          file_bytes = len;
                        }
                      in
                      let mismatch reason =
                        Error (Error.Header_mismatch { file = path; reason })
                      in
                      if Ifmh.scheme index <> scheme then
                        mismatch "scheme tag disagrees with image"
                      else if Ifmh.epoch index <> epoch then
                        mismatch
                          (Printf.sprintf
                             "header epoch %d, image epoch %d" epoch
                             (Ifmh.epoch index))
                      else if n_leaves index <> hdr.n_leaves then
                        mismatch
                          (Printf.sprintf
                             "header n_leaves %d, image has %d" hdr.n_leaves
                             (n_leaves index))
                      else Ok (index, hdr))))
