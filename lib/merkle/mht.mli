(** Merkle hash trees over leaf digests (the paper's MH-tree / FMH-tree
    building block).

    The shape follows the paper's bottom-up construction: leaves are
    paired left to right and an odd trailing node is promoted to the next
    level — equivalently, an [n]-leaf tree splits into a left subtree
    over the largest power of two strictly below [n] (or [n/2] when [n]
    is itself a power of two) and a right subtree over the rest. The
    shape is therefore a deterministic function of [n] alone, which lets
    a verifier reconstruct roots from segments without trusting any
    structural hints.

    Each leaf carries an unhashed value beside its digest (an FMH leaf
    holds the table position of the record it commits), so a sorted
    list and its tree are one object.

    Trees are immutable and persistent: {!set_many} shares all
    untouched nodes, so the owner can snapshot one FMH per subdomain
    while paying only the root paths of the positions that moving
    across a subdomain boundary changes — one {!set_many} per boundary,
    O(log n) for an adjacent transposition.

    Interior hashes are domain-separated from leaf digests
    ([H("\x03" | left | right)]), preventing leaf/interior confusion. *)

type 'a t

val init : int -> (int -> string * 'a) -> 'a t
(** [init n f]: leaf [i] holds the digest and value [f i]. @raise Invalid_argument if [n < 1]. *)

val root : 'a t -> string

val leaf : 'a t -> int -> string
(** Leaf [i]'s digest. @raise Invalid_argument if out of bounds. *)

val value : 'a t -> int -> 'a
(** Leaf [i]'s value. @raise Invalid_argument if out of bounds. *)

val map_range : 'a t -> lo:int -> hi:int -> ('a -> 'b) -> 'b list
(** [f] of the values of leaves [lo..hi], in index order, in one walk
    (not a {!value} per leaf), applied from [hi] down to [lo]. Empty
    when [lo > hi].
    @raise Invalid_argument if a non-empty range is out of bounds. *)

val set_many : 'a t -> (int * string * 'a) list -> 'a t
(** Replace several leaves in one descent: [changes] are
    [(index, digest, value)] triples in strictly ascending index order.
    Every node on the union of the changed leaves' root paths is
    rehashed once: two adjacent leaves cost about log n + 1 node hashes
    instead of the 2 log n of two single-leaf calls. [set_many t []] is
    [t].
    @raise Invalid_argument on an out-of-bounds, duplicate or
    unsorted index. *)

(** {1 Proofs} *)

type path_elem = { sibling : string; sibling_on_left : bool }

val auth_path : 'a t -> int -> path_elem list
(** Leaf-to-root sibling chain for one leaf. Visited nodes are counted
    in {!Aqv_util.Metrics} as FMH-node traversals. *)

val root_of_path : leaf:string -> path:path_elem list -> string
(** The root an authentication path commits to, folded up from [leaf]. *)

val index_of_path : n:int -> path:path_elem list -> int option
(** The leaf index a path proves, recovered from the sibling sides and
    the deterministic shape of an [n]-leaf tree; [None] when the path
    length is inconsistent with [n]. Together with {!root_of_path} this
    makes single-leaf proofs positional — the basis of verifiable rank
    and count queries. *)

val range_proof : 'a t -> lo:int -> hi:int -> string list
(** Digests of the maximal subtrees {e outside} [\[lo, hi\]], in
    left-to-right traversal order: together with the leaf digests of
    the range they determine the root. *)

val node_hash : string -> string -> string
(** [node_hash l r] is the interior hash [H("\x03" | l | r)]: a pure
    function of the bytes [l ^ r]. *)

val root_of_range :
  node_hash:(string -> string -> string) ->
  n:int ->
  lo:int ->
  leaves:string list ->
  proof:string list ->
  string option
(** Rebuild the root of an [n]-leaf tree from the leaf digests
    [lo .. lo + length leaves - 1] plus a {!range_proof}, hashing every
    interior node with [node_hash] — {!node_hash} itself, or any
    function equal to it, such as a verifier's memo of it. [None] if
    the shapes are inconsistent (wrong counts). *)
