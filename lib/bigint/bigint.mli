(** Arbitrary-precision signed integers.

    OCaml sign + magnitude in base 2^26 limbs, with a native-[int] fast
    path for small values so that the exact-rational layer built on top
    stays cheap on typical workloads. The one exception is the
    Montgomery product under {!mod_pow_mont}: a C kernel over 64-bit
    limbs ([mont_stubs.c]), one body that the compiler also unrolls for
    a constant 4 and 8 limbs (RSA-512's CRT halves, its modulus and
    DSA's p), whose results equal plain square-and-multiply's at every
    size. Serves two clients: the exact geometry in
    {!Aqv_num} and the public-key cryptography in {!Aqv_crypto}. *)

type t

val one : t
val two : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [None] if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]; or hexadecimal with a [0x]
    prefix. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div : t -> t -> t
val rem : t -> t -> t
(** Truncated division: [a = div a b * b + rem a b] with
    [0 <= |rem a b| < |b|], the remainder carrying the sign of [a].
    @raise Division_by_zero. *)

val erem : t -> t -> t
(** Euclidean remainder: always in [\[0, |b|)]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude (logical on
    magnitude; sign preserved). *)

val mul_int : t -> int -> t

(** {1 Number theory (used by the crypto layer)} *)

val bit_length : t -> int
(** Number of significant bits of the magnitude; [bit_length zero = 0]. *)

val is_even : t -> bool
val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd zero zero = zero]. *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** [mod_pow ~base ~exp ~modulus] computes [base^exp mod modulus] for
    [exp >= 0], [modulus > 0]. An odd modulus of at most 8192 bits goes
    through [mod_pow_mont (mont modulus)]; any other modulus takes
    plain square-and-multiply. *)

type mont
(** Montgomery context of one odd modulus [m] of [n] 64-bit limbs: the
    limbs, [-m^-1 mod 2^64] and [R^2 mod m] for [R = 2^(64n)].
    Immutable, so domains may share it. Build it once per key and reuse
    it for every exponentiation under that modulus. *)

val mont : t -> mont
(** @raise Invalid_argument if the modulus is even, [<= 1], or above
    8192 bits. *)

val mod_pow_mont : mont -> base:t -> exp:t -> t
(** [mod_pow_mont c ~base ~exp] is [base^exp mod m] for the context's
    modulus [m] and [exp >= 0]; [base] may be negative or [>= m]. The
    base enters the Montgomery domain and the result leaves it once per
    call; every product in between runs in the C kernel. Allocation
    does not grow with the exponent's length.
    @raise Invalid_argument on a negative exponent. *)

val mod_inv : t -> t -> t
(** [mod_inv a m] is the inverse of [a] modulo [m].
    @raise Not_found if [gcd a m <> 1]. *)

(** {1 Conversions for crypto} *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation. *)

val to_bytes_be : ?width:int -> t -> string
(** Big-endian minimal encoding of the magnitude, left-padded with zero
    bytes to [width] if given. @raise Invalid_argument if the value does
    not fit in [width] bytes or is negative. *)

val random_bits : Aqv_util.Prng.t -> int -> t
(** Uniform in [\[0, 2^bits)]. *)

val random_below : Aqv_util.Prng.t -> t -> t
(** Uniform in [\[0, bound)]; [bound > 0]. *)
