(** RSA signatures (PKCS#1 v1.5-style padding over SHA-256 digests).

    OCaml over {!Aqv_bigint.Bigint}, whose modular exponentiation runs
    on one C Montgomery kernel; signing uses the CRT. The paper
    evaluates both RSA and DSA as the data owner's signature algorithm
    (Fig. 7c); key size is a parameter so that the signature-heavy
    baseline stays tractable in simulation. *)

type priv
type pub

val generate : ?bits:int -> Aqv_util.Prng.t -> priv * pub
(** [generate ~bits rng] creates a key pair with a [bits]-bit modulus
    (default 512). @raise Invalid_argument unless [128 <= bits <= 8192].
    @raise Failure ["Rsa.generate: exhausted"] after 128 rejected prime
    pairs, and [Failure] from {!Prime.gen_prime}: either only happens
    when the modular exponentiation underneath is broken. *)

val sign : priv -> Sha256.digest -> string
(** Signature bytes, always [bits/8] long. Counted in {!Aqv_util.Metrics}. *)

val verify : pub -> Sha256.digest -> string -> bool
(** Counted in {!Aqv_util.Metrics}. *)

val signature_size : pub -> int
(** Bytes per signature (modulus size). *)

val encode_pub : Aqv_util.Wire.writer -> pub -> unit
(** Wire form of the public key (modulus and exponent), so verifying
    clients can receive it from the owner. *)

val decode_pub : Aqv_util.Wire.reader -> pub
(** @raise Failure on malformed input, on a modulus that is even, under
    62 bytes (too small for the padded digest) or above 8192 bits, and
    on an exponent outside [\[2, n)]. *)
