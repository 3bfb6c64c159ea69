(** SHA-256 (FIPS 180-4) on one C compression kernel
    ([sha256_stubs.c]).

    This is the one-way hash [H(.)] used throughout the paper's
    constructions: record digests, FMH/IMH node hashes, signature-mesh
    chain digests. Every one-shot digest is counted in
    {!Aqv_util.Metrics} so the simulation can report hash-operation
    counts (Fig. 7b).

    The kernel has two bodies that compute the same bytes: one on the
    x86 SHA extensions, one in portable C. The process picks one once,
    from CPUID, when this module is initialised; {!kernel} says which. *)

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

val kernel : string
(** The compression body this process runs: ["sha-ext"] (x86 SHA
    extensions) or ["portable"]. Hash timings taken under the two differ
    by about 5x; report this next to them. *)

val digest_list_portable : string list -> digest
(** {!digest_list} on the portable body, whichever body {!kernel}
    names; counted the same way. Where the CPU has the SHA extensions no
    other function reaches the portable body, so the tests hold it to
    the reference through this. *)

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
