(** CRC-32 (IEEE 802.3, reflected, polynomial [0xEDB88320]).

    Guards every on-disk artifact of the store: the snapshot payload and
    each write-ahead log frame carry their checksum so recovery can tell
    a bit flip from a torn tail. Not cryptographic — integrity against
    {e accidental} corruption only; authenticity comes from the owner's
    signatures inside the index itself. Values fit OCaml's native [int]
    (32 bits in 63). *)

val string : string -> int
(** Checksum of a whole string. *)

val be32 : int -> string
(** Big-endian 4-byte encoding of the low 32 bits. *)

val read_be32 : string -> int -> int
(** Decode 4 big-endian bytes at offset. @raise Invalid_argument if out
    of bounds. *)
