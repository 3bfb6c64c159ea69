(** DSA signatures (FIPS 186-style) with deterministic nonces.

    Nonces are derived from the private key and message digest with
    HMAC-SHA256 (in the spirit of RFC 6979), so signing is reproducible
    and needs no entropy source. Parameter generation is seeded and
    sized by [lbits]/[nbits]; the defaults (512/160) mirror classic DSA
    scaled to the simulation's RSA size. *)

type params
type priv
type pub

val gen_params : ?lbits:int -> ?nbits:int -> Aqv_util.Prng.t -> params
(** Generate a (p, q, g) domain-parameter triple: [q] prime of [nbits],
    [p = 1 (mod q)] prime of [lbits], [g] of order [q].
    @raise Invalid_argument unless [nbits < lbits <= 8192]. *)

val generate : params -> Aqv_util.Prng.t -> priv * pub
val sign : priv -> Sha256.digest -> string
val verify : pub -> Sha256.digest -> string -> bool
val signature_size : pub -> int
(** Bytes per signature: two [nbits]-size scalars, length-prefixed. *)

val encode_pub : Aqv_util.Wire.writer -> pub -> unit
(** Wire form of the public key (domain parameters and [y]). *)

val decode_pub : Aqv_util.Wire.reader -> pub
(** @raise Failure on malformed input, and on a [p] that is even or
    above 8192 bits. [q] is not tested for primality: {!verify} returns
    [false] when the signature's [s] has no inverse mod [q]. *)
