(** Bounded response cache that admits a reply on its second request.

    Maps raw request bytes (the caller prefixes the index epoch into the
    key) to encoded replies (the engine stores each one framed, so a hit
    is written as it is). Safe to share across an immutable-per-
    epoch index: two byte-identical requests against the same epoch are
    guaranteed the same reply, so serving the cached bytes is sound.
    A doorkeeper of 2{^14} key fingerprints keeps one-off requests out:
    a key is stored only when it is offered the second time, so replies
    that never come back cost no entry. It forgets every fingerprint
    after 2{^14} first offers, so a stream that comes round again long
    after does not churn the table. The table holds at most 1024 entries
    and is cleared when an admitted key finds it full. Thread-safe. *)

type t

val create : unit -> t

val find : t -> string -> string option

val add : t -> string -> (unit -> string) -> unit
(** [add t key value] offers a binding; [value ()] is called only when
    the binding is stored, so a reply the cache turns down is never
    copied. A key already cached is refreshed. Otherwise the binding is
    inserted only if the key was offered before and its fingerprint is
    still in the doorkeeper (a fingerprint collision can admit a key on
    its first offer, never change a value); else only the fingerprint
    is recorded. An insert into a full table clears it first. *)
