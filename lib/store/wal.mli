(** Append-only write-ahead log of CRC32-framed delta records.

    On-disk layout (see DESIGN.md §8):

    {v
    "AQVWAL1\n"                          8-byte magic
    frame*:   4-byte BE  payload length
              4-byte BE  CRC-32 of the payload
              payload:   varint base epoch  (the epoch the delta applies to)
                         bytes  Ifmh.encode_delta image
    v}

    {!append} fsyncs before returning — the caller may only acknowledge
    a republish after [append] comes back, which is exactly the
    durable-before-ack contract the engine relies on.

    {!scan} classifies damage: an {e incomplete} trailing frame (header
    or payload cut short) is a torn tail — the expected artifact of a
    crash mid-append — and is reported as truncatable garbage; a
    {e complete} frame whose CRC fails is corruption and surfaces as
    [Error.Checksum_mismatch]. A corrupted length field is
    indistinguishable from a torn tail and is treated as one: recovery
    then serves a valid prefix of the delta chain, which is safe
    (clients detect staleness through their minimum-epoch check). *)

type frame = { base_epoch : int; delta : string }

type scan_result = {
  scanned : frame list;  (** complete, checksummed frames, in order *)
  valid_bytes : int;  (** prefix length covering magic + those frames *)
  torn_bytes : int;  (** trailing garbage past [valid_bytes] *)
}
(** [valid_bytes = 0] means even the magic is torn (interrupted
    {!create}): the caller should recreate the log. *)

val scan : io:Io.t -> path:string -> (scan_result, Error.t) result
(** Read-only validation pass over the whole log. *)

type t
(** An open log handle (append mode). *)

val create : io:Io.t -> path:string -> t
(** Write a fresh log (magic only) via the atomic writer and open it for
    append. Replaces any previous log at [path].
    @raise Error.Error ([Io_error]) on failure. *)

val open_append : io:Io.t -> path:string -> scan_result -> t
(** Open a log for append from its {!scan} (which must have found the
    magic: [valid_bytes > 0]), which seeds the size accounting
    ({!size_bytes}, {!frames}); a torn tail is cut off first.
    @raise Error.Error ([Io_error]) on failure. *)

val append : t -> frame -> unit
(** Frame, write, fsync. A failed append never leaves the handle
    pointing past garbage: a partial write (ENOSPC, failed fsync) is
    rolled back by truncating the file to the last good offset, so a
    retry appends at a clean boundary; if the rollback itself fails the
    handle is {e poisoned} and every later append is refused until the
    log is reopened through a recovery scan or {!reset} — otherwise a retried,
    acked frame could sit after garbage that recovery truncates away.
    @raise Error.Error ([Io_error]) on failure. *)

val reset : t -> unit
(** Compaction: truncate the log to its magic, in place, and fsync. Call
    only once a snapshot covering every frame is durable. Once the cut is
    durable the handle is no longer poisoned.
    @raise Error.Error ([Io_error]) on failure. *)

val size_bytes : t -> int
val frames : t -> int
val close : t -> unit
