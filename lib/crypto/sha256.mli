(** SHA-256 (FIPS 180-4), pure OCaml.

    This is the one-way hash [H(.)] used throughout the paper's
    constructions: record digests, FMH/IMH node hashes, signature-mesh
    chain digests. Every call is counted in {!Aqv_util.Metrics} so the
    simulation can report hash-operation counts (Fig. 7b). *)

type digest = string
(** 32 raw bytes. *)

val digest_size : int
(** 32. *)

val digest : string -> digest
(** Hash a full message. *)

val digest_list : string list -> digest
(** Hash the concatenation of the fragments (single pass, one counter
    tick): the paper's [H(a | b | ...)]. *)

val hex : digest -> string
(** Lowercase hex of a digest. *)

(** Streaming interface. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> digest
(** [finalize] may be called once per context. *)

val copy : ctx -> ctx
(** An independent context in the same state: feeding or finalizing
    either one leaves the other untouched. Lets messages that share a
    prefix hash it once. The streaming interface ticks no
    {!Aqv_util.Metrics} counter; callers that use it count their own
    digests. @raise Invalid_argument on a finalized context. *)
