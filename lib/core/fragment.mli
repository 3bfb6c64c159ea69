(** Content-addressed cache of per-subdomain VO fragments.

    The serving engine's response cache is keyed by [(epoch, request)],
    so a republish strands every entry even when almost nothing changed.
    This cache sits one level below, inside {!Server}'s VO assembly, and
    is keyed by the {e full content} each fragment is a pure function
    of — record digests, window position, FMH root, path sibling hashes
    — and never by leaf id, cell index or epoch. An entry therefore either still describes
    exactly the bytes the current index would assemble (its key matches,
    by collision resistance of the committed digests), or it can never
    be found again. That is what lets the cache be carried across
    {!Ifmh.apply}: after a republish, fragments whose records the change
    list did not touch keep hitting, while the epoch-dependent VO fields
    (epoch, [n_leaves], signature) are always taken from the live index.

    A fragment keyed by anything less — a cell index, a leaf id — would
    silently break cached == cache-cold byte-identity of served VOs.
    [test/test_update.ml]
    qchecks that identity across schemes, dimensions and republish
    sequences.

    Lookups and stores tick the fragment counters in
    {!Aqv_util.Metrics} and per-cache counters (for engine stats);
    both are deterministic for a deterministic query sequence. All
    operations are thread-safe; entries hold only immutable data. *)

type window = {
  left : Vo.boundary;
  right : Vo.boundary;
  result : Aqv_db.Record.t list;
}
(** The window body of a VO: result records plus the two boundary
    records/sentinels. A pure function of the window position and the
    committed record digests. *)

type value =
  | Window of window
  | Range of string list  (** an FMH range proof, as shipped in the VO *)
  | Proof of Vo.subdomain_proof
      (** one-sig path steps or multi-sig constraint records *)

type t

val create : unit -> t
(** An empty cache of at most 4096 entries (flush-on-full eviction). *)

val disabled : unit -> t
(** A cache that holds nothing: every lookup misses without ticking
    counters, stores are dropped. The cache-cold baseline of the
    cached == cold identity tests. *)

val counters : t -> int * int
(** [(hits, misses)] accumulated by this cache object — unlike the
    global {!Aqv_util.Metrics} counters these survive concurrent serving
    without attribution races, so the engine reports them in its
    stats. *)

val find : t -> string -> value option
val add : t -> string -> value -> unit

val purge : t -> ids:int list -> unit
(** Drop entries dirtied by a change to the given record ids, read off
    each value: a [Window] naming one of them as a boundary or result
    record, a multi-sig [Proof] naming one in a constraint, and every
    [Range] and one-sig [Proof] (they commit hashes of the whole
    index). Purging is hygiene, not correctness: stale entries can
    never match a content key again. Called by {!Ifmh.apply} /
    {!Ifmh.apply_delta} with the change list's ids. *)

(** {1 Key builders}

    Self-delimiting encodings with a kind tag, so keys of different
    kinds or shapes never alias. *)

val window_key :
  window_lo:int -> left:string -> result:string list -> right:string -> string
(** [left]/[right] are boundary record digests (or the sentinel
    digests); [result] the digests of the answer records in order. *)

val range_key : fmh_root:string -> lo:int -> hi:int -> string

val one_sig_key : (string * string * Aqv_num.Halfspace.side * string) list -> string
(** Per descent step, root first: the two pair-record digests, the side
    taken, and the sibling subtree hash. *)

val multi_sig_key : (string * string * Aqv_num.Halfspace.side) list -> string
(** Per carving inequality: the two pair-record digests and the side. *)
