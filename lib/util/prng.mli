(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component of the library (workload generation, key
    generation, nonce derivation, index-build shuffling) draws from an
    explicit [Prng.t] so that experiments and tests are reproducible from
    a seed. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val bits : t -> int -> int
(** [bits t k] returns a uniformly random integer in [\[0, 2^k)] for
    [0 <= k <= 62]. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
