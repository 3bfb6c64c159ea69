(** Bounded LRU response cache.

    Maps raw request bytes (the caller prefixes the index epoch into the
    key) to encoded replies (the engine stores each one framed, so a hit
    is written as it is). Safe to share across an immutable-per-
    epoch index: two byte-identical requests against the same epoch are
    guaranteed the same reply, so serving the cached bytes is sound.
    Thread-safe; O(1) lookup and insertion with true LRU eviction. *)

type t

val create : capacity:int -> t
(** [capacity <= 0] makes a disabled cache: {!find} always misses and
    {!add} is a no-op. *)

val find : t -> string -> string option
(** A hit refreshes the entry's recency. *)

val add : t -> string -> string -> unit
(** Inserts (or refreshes) the binding, evicting the least recently
    used entry when over capacity. *)
