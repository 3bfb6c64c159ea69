(** Fixed-size domain pool for deterministic data parallelism.

    Owner-side construction (per-subdomain sorting and FMH building,
    record digesting, per-leaf and per-chain signing) is embarrassingly
    parallel: every unit of work is a pure function of its inputs. The
    pool fans such work out over OCaml 5 domains while keeping the
    result {e bit-identical} to a sequential run — results land in their
    input slot regardless of which domain produced them, and nothing in
    a task may touch an {!Aqv_util.Prng} stream (seeded streams are the
    reproducibility backbone; parallel code gets no randomness).

    Sizing: [create ()] uses [AQV_DOMAINS] when set, otherwise
    [Domain.recommended_domain_count ()]. A pool of size 1 spawns no
    domains and degrades every operation to a plain in-caller loop, so
    tests can force sequential execution with [create ~domains:1 ()].

    The scheduler is work-sharing: the submitting caller executes chunks
    alongside the workers and, while waiting, drains whatever is queued
    — so nested [parallel_map] calls on one pool cannot deadlock (a
    blocked outer task keeps executing inner tasks). *)

type pool

val create : ?domains:int -> unit -> pool
(** Spawn [domains - 1] worker domains (the caller is the remaining
    executor). Default size: [AQV_DOMAINS] if set to a positive integer,
    else [Domain.recommended_domain_count ()]; clamped to [1, 128].
    @raise Invalid_argument if [domains < 1]. *)

val default : unit -> pool
(** The process-global pool, created on first use and torn down at exit. *)

val size : pool -> int
(** Total executors (workers + the submitting caller), [>= 1]. *)

val parallel_map : pool -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map p f a] is [Array.map f a] with the applications spread
    over the pool in index-ordered chunks. [f] must be pure (up to
    commutative effects such as {!Aqv_util.Metrics} ticks): the output
    array is identical to the sequential map's. If one or more
    applications raise, the exception of the lowest-index failing chunk
    is re-raised in the caller after all chunks finish. *)

val parallel_init : pool -> int -> (int -> 'b) -> 'b array
(** [parallel_init p n f] is [Array.init n f], parallelized as
    {!parallel_map}. [n = 0] yields [[||]].
    @raise Invalid_argument if [n < 0]. *)

val shutdown : pool -> unit
(** Stop and join the workers. Idempotent. Mapping over a shut-down
    pool runs sequentially. *)
