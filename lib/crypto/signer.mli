(** Unified signature-scheme interface.

    The index builders ({!Aqv.Ifmh}, {!Aqv_baseline.Mesh}) are
    parametric in the signature algorithm: the paper compares RSA and
    DSA (Fig. 7c). A [keypair] bundles the owner-side signing closure
    with the user-side verification closure, plus metadata the benches
    report. *)

type algorithm = Rsa | Dsa

val algorithm_name : algorithm -> string

type public =
  | Rsa_public of Rsa.pub
  | Dsa_public of Dsa.pub
  | Unverifiable  (** dry-run scheme: no key exists *)

type keypair = {
  algorithm : algorithm;
  sign : Sha256.digest -> string;
  verify : Sha256.digest -> string -> bool;
  signature_size : int;  (** bytes per signature on the wire *)
  public : public;  (** the part the owner publishes to clients *)
}

val verifier : public -> Sha256.digest -> string -> bool
(** Verification closure of a (possibly received) public key. *)

val encode_public : Aqv_util.Wire.writer -> public -> unit
val decode_public : Aqv_util.Wire.reader -> public
(** @raise Failure on malformed input. *)

val generate : ?bits:int -> algorithm -> Aqv_util.Prng.t -> keypair
(** [generate ~bits alg rng]. For RSA, [bits] is the modulus size
    (default 512). For DSA, [bits] is the [p] size; the subgroup is
    160 bits. *)

val counting_sign_dry_run : signature_size:int -> keypair
(** A fake scheme that produces unverifiable constant signatures of the
    given size without any arithmetic, but still ticks the metrics
    counters. Used for dry-run signature *counting* experiments at paper
    scale (Fig. 5a) where performing real RSA would be intractable —
    see DESIGN.md. Its [verify] always returns [false]. *)
