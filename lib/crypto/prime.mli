(** Prime generation for RSA and DSA key/parameter generation.
    Candidates are tested by Miller–Rabin with 24 random bases (error
    probability <= 4^-24) after trial division by small primes. A
    generator draws at most 32 ([gen_prime]) or 64 candidates per bit:
    sound arithmetic runs out with probability below 2^-128. *)

val gen_prime : Aqv_util.Prng.t -> bits:int -> Aqv_bigint.Bigint.t
(** Random prime with exactly [bits] bits (top bit set), [bits >= 2].
    @raise Failure ["Prime.gen_prime: exhausted"] when no candidate
    passes, which only a broken modular exponentiation brings about. *)

val gen_safe_candidate :
  Aqv_util.Prng.t -> bits:int -> residue:Aqv_bigint.Bigint.t -> modulus:Aqv_bigint.Bigint.t -> Aqv_bigint.Bigint.t
(** Random prime [p] with [bits] bits such that [p mod modulus = residue].
    Used by DSA parameter generation ([p = 1 (mod q)]).
    @raise Invalid_argument if no candidate can exist. *)
