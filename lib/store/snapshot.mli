(** Checksummed, atomically-published index images.

    On-disk layout (see DESIGN.md §8):

    {v
    "AQVSNP1\n"                            8-byte magic
    payload:  u8      scheme tag (1 = one-signature, 2 = multi)
              varint  epoch
              varint  n_leaves (records + 2 sentinels)
              bytes   Ifmh.save image (length-prefixed)
    crc:      4-byte big-endian CRC-32 of the payload
    v}

    The header duplicates scheme / epoch / n_leaves from the image on
    purpose: {!read} cross-checks them against the loaded index, so a
    snapshot whose frame disagrees with its contents is rejected with
    {!Error.Header_mismatch} instead of being served.

    {!write} goes through temp-file + rename: a crash mid-publish
    leaves either the old snapshot or the new one, never a torn file. *)

type header = {
  scheme : Aqv.Ifmh.scheme;
  epoch : int;
  n_leaves : int;
  file_bytes : int;  (** size of the whole snapshot file *)
}

val write : io:Io.t -> path:string -> Aqv.Ifmh.t -> unit
(** Atomic publish: write to a temp file in the same directory, fsync,
    rename over [path], fsync the directory.
    @raise Error.Error ([Io_error]) on failure. *)

val read :
  ?pool:Aqv_par.Pool.pool ->
  io:Io.t ->
  path:string ->
  unit ->
  (Aqv.Ifmh.t * header, Error.t) result
(** Validate magic, structure, CRC and header consistency, then rebuild
    the index ([Ifmh.load], parallelized over [pool]). Never raises on
    malformed input — every corruption mode maps to a typed error. *)
