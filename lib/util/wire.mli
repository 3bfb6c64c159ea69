(** Canonical binary encoding.

    Used for three purposes: (1) canonical byte strings fed to the
    one-way hash when committing to records, functions, and constraint
    sets; (2) measuring the size in bytes of verification objects and
    indexes (the paper's Figures 5c, 8a, 8b); and (3) the serving
    protocol's requests and replies. The format is a simple deterministic
    TLV: varint-length-prefixed fields written in a fixed order.

    The writer is a growable [Bytes]: each primitive reserves its worst
    case once and stores its bytes unchecked, a string goes in with one
    blit, and nothing allocates per field. A writer can hold back bytes
    at its front for a header (the serving engine's frame header, see
    [Aqv_serve.Frame_io]), so a reply leaves it once, already framed.
    The reader checks bounds once per byte of a varint and once per
    field, and allocates no closures. *)

type writer

val writer : unit -> writer

val writer_after : int -> writer
(** [writer_after k] is a writer whose first [k] bytes are held back for
    a header: [size] and [contents] leave them out, and
    [contents_with_header] fills them in. *)

val contents : writer -> string
(** The bytes written, without the held-back header. *)

val contents_with_header : writer -> string -> string
(** [contents_with_header w h] is [h ^ contents w] in one copy, [h]
    stored over the held-back bytes.
    @raise Invalid_argument unless [h] is exactly as long as they are. *)

val buffer_with_header : writer -> string -> Bytes.t
(** [buffer_with_header w h] stores [h] as [contents_with_header] does
    and returns the writer's own buffer, not a copy: its first
    [String.length h + size w] bytes are [h ^ contents w], until the
    next write to [w] or {!reset}. Same [@raise]. *)

val size : writer -> int
(** The length of [contents]. *)

val reset : writer -> unit
(** Empties the writer for its next use: its buffer, grown to the
    largest contents so far, and its held-back header stay. *)

val u8 : writer -> int -> unit
val varint : writer -> int -> unit
(** Non-negative integer, LEB128. @raise Invalid_argument if negative. *)

val int : writer -> int -> unit
(** Signed integer, zigzag + LEB128. *)

val bytes : writer -> string -> unit
(** Length-prefixed byte string. *)

val raw : writer -> string -> unit
(** The string's bytes as they are, with no length prefix: one blit.
    For bytes that are already an encoding (a record's cached bytes,
    see [Aqv_db.Record]). *)

val uint_be : writer -> int -> unit
(** Non-negative integer as a length-prefixed big-endian byte string:
    the minimal bytes of its magnitude, one zero byte for zero. The same
    bytes as [bytes] of [Bigint.to_bytes_be], without building either.
    @raise Invalid_argument if negative. *)

val list : writer -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed sequence; elements written by the callback. *)

(** Reader for round-trip decoding (tests, CLI). All read functions
    @raise Failure on malformed input. *)

type reader

val reader : string -> reader
val read_u8 : reader -> int
val read_varint : reader -> int
(** Refuses ([Failure "Wire: varint overflow"]) any encoding of a value
    above [max_int], so it never returns a negative int. *)

val read_int : reader -> int
val read_bytes : reader -> string

val read_uint_be : reader -> int
(** A length-prefixed big-endian unsigned field, leading zero bytes
    allowed, read in place. Returns its value when that is at most
    [max_int]; otherwise returns [-1] and leaves the reader where it
    was, so the caller can re-read the field with [read_bytes]. *)

val read_signed_uint_be : reader -> int
(** A sign byte (1: negative, any other: non-negative) then a
    [read_uint_be] field, as a signed int; [min_int], with the reader
    left before the sign byte, when the magnitude exceeds [max_int]. *)

val read_length : reader -> int
(** A [varint] count or length no larger than the bytes left, as
    [read_bytes] and [read_array] read theirs. *)

val position : reader -> int
val since : reader -> int -> string
(** [position r] is the offset of the next byte to read, [since r p]
    the input from offset [p] up to it. *)

val consume_from : reader -> int -> string -> bool
(** [consume_from r p s]: whether the input from offset [p] starts with
    [s]; if so the reader moves just past it, else it stays. *)

val read_list : reader -> (reader -> 'a) -> 'a list

val read_array : reader -> (reader -> 'a) -> 'a array
(** Length-prefixed array, as written by [varint] then the elements.
    Elements are read in order. Every element must cost at least one
    byte: a length larger than the bytes left in the reader fails with
    [Failure "Wire: truncated"] before anything is allocated. *)
