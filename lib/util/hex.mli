(** Hexadecimal encoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s]. *)
