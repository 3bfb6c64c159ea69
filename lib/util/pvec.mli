(** Persistent vectors (balanced binary tree, path copying).

    O(log n) [get]/[set], O(n) construction. Only the signature-mesh
    baseline uses them, for its per-subdomain sorted positions (the IFMH
    index keeps those in its FMH-tree leaves): each shares all but the
    moved slots' paths with its neighbour. *)

type 'a t

val of_array : 'a array -> 'a t
(** @raise Invalid_argument on an empty array. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument if out of bounds. *)

val set : 'a t -> int -> 'a -> 'a t
val to_array : 'a t -> 'a array
