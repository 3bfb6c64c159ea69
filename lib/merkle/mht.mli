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

    Trees are immutable and persistent: {!set} and {!set_many} share
    all untouched nodes, so the owner can snapshot one FMH per
    subdomain while paying only the root paths of the positions that
    moving across a subdomain boundary changes — one {!set_many} per
    boundary, O(log n) for an adjacent transposition.

    Interior hashes are domain-separated from leaf digests
    ([H("\x03" | left | right)]), preventing leaf/interior confusion. *)

type t

val of_digests : string array -> t
(** @raise Invalid_argument on an empty array. *)

val root : t -> string
val leaf : t -> int -> string
(** @raise Invalid_argument if out of bounds. *)

val set_many : t -> (int * string) list -> t
(** Replace several leaf digests in one descent: [changes] are
    [(index, digest)] pairs in strictly ascending index order. Every
    node on the union of the changed leaves' root paths is rehashed
    once, so the result equals folding {!set} over [changes] at a
    fraction of the hashing when the paths share ancestors — two
    adjacent leaves cost about log n + 1 node hashes instead of
    2 log n. [set_many t []] is [t].
    @raise Invalid_argument on an out-of-bounds, duplicate or
    unsorted index. *)

(** {1 Proofs} *)

type path_elem = { sibling : string; sibling_on_left : bool }

val auth_path : t -> int -> path_elem list
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

val range_proof : t -> lo:int -> hi:int -> string list
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
