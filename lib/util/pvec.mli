(** Persistent vectors (balanced binary tree, path copying).

    O(log n) [get]/[set], O(n) construction. Used to snapshot one sorted
    function list per subdomain: adjacent subdomains differ by one
    transposition, so each snapshot shares all but O(log n) nodes with
    its neighbour. *)

type 'a t

val of_array : 'a array -> 'a t
(** @raise Invalid_argument on an empty array. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
(** @raise Invalid_argument if out of bounds. *)

val map_range : 'a t -> lo:int -> hi:int -> ('a -> 'b) -> 'b list
(** [map_range t ~lo ~hi f] is [f] of the elements at [lo..hi], in index
    order: one descent to [lo], then a walk of the subtrees in between,
    not a [get] per element. [f] is applied from [hi] down to [lo].
    Empty when [lo > hi].
    @raise Invalid_argument if a non-empty range is out of bounds. *)

val set : 'a t -> int -> 'a -> 'a t
val to_array : 'a t -> 'a array
