(** Bounded LRU response cache that admits a reply on its second
    request.

    Maps raw request bytes (the caller prefixes the index epoch into the
    key) to encoded replies (the engine stores each one framed, so a hit
    is written as it is). Safe to share across an immutable-per-
    epoch index: two byte-identical requests against the same epoch are
    guaranteed the same reply, so serving the cached bytes is sound.
    A doorkeeper of 2{^14} key fingerprints keeps one-off requests out:
    a key is stored only when it is offered the second time, so replies
    that never come back cost no entry and evict nothing. It forgets
    every fingerprint after 2{^14} first offers, so a stream that comes
    round again long after does not churn the table. Thread-safe;
    O(1) lookup and insertion with true LRU eviction. *)

type t

val create : capacity:int -> t
(** [capacity <= 0] makes a disabled cache: {!find} always misses and
    {!add} is a no-op. *)

val find : t -> string -> string option
(** A hit refreshes the entry's recency. *)

val add : t -> string -> string -> unit
(** Offers a binding. A key already cached is refreshed. Otherwise the
    binding is inserted only if the key was offered before and its
    fingerprint is still in the doorkeeper (a fingerprint collision can
    admit a key on its first offer, never change a value); else only
    the fingerprint is recorded. An insert evicts the least recently
    used entry when over capacity. *)
