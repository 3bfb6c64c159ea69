module Z = Aqv_bigint.Bigint

type priv = {
  p : Z.t;
  q : Z.t;
  pm : Z.mont;
  qm : Z.mont;
  dp : Z.t;  (* d mod p-1 *)
  dq : Z.t;  (* d mod q-1 *)
  qinv : Z.t;  (* q^-1 mod p *)
  k : int;  (* modulus bytes *)
}

type pub = { n : Z.t; e : Z.t; nm : Z.mont; k : int }

let e_fixed = Z.of_int 65537

(* Prime pairs drawn before giving up. A sound pair is rejected only
   when the product is one bit short (for two primes uniform in their
   range, with probability 2 ln 2 - 1, about 0.39) or shares a factor
   with e, so sound arithmetic runs out with probability below 2^-170;
   a broken modular exponentiation that biases the primes low is
   rejected every time, and must fail in seconds rather than spin. *)
let max_attempts = 128

let generate ?(bits = 512) rng =
  if bits < 128 then invalid_arg "Rsa.generate: modulus too small";
  if bits > 8192 then invalid_arg "Rsa.generate: modulus above 8192 bits";
  let half = bits / 2 in
  let rec go attempts =
    if attempts = 0 then failwith "Rsa.generate: exhausted";
    let p = Prime.gen_prime rng ~bits:half in
    let q = Prime.gen_prime rng ~bits:(bits - half) in
    if Z.equal p q then go (attempts - 1)
    else begin
      let n = Z.mul p q in
      let p1 = Z.pred p and q1 = Z.pred q in
      let phi = Z.mul p1 q1 in
      if Z.bit_length n <> bits || not (Z.equal (Z.gcd e_fixed phi) Z.one) then go (attempts - 1)
      else begin
        let d = Z.mod_inv e_fixed phi in
        let k = (bits + 7) / 8 in
        ( {
            p;
            q;
            pm = Z.mont p;
            qm = Z.mont q;
            dp = Z.erem d p1;
            dq = Z.erem d q1;
            qinv = Z.mod_inv q p;
            k;
          },
          { n; e = e_fixed; nm = Z.mont n; k } )
      end
    end
  in
  go max_attempts

(* EMSA-PKCS1-v1.5-style encoding of a SHA-256 digest into k bytes:
   00 01 FF..FF 00 <digestinfo> <digest>. *)
let der_sha256_prefix =
  "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

(* the smallest modulus whose bytes hold the padded DigestInfo *)
let min_modulus_bytes = String.length der_sha256_prefix + Sha256.digest_size + 11

let encode_digest k digest =
  if k < min_modulus_bytes then invalid_arg "Rsa: modulus too small for digest";
  let t = der_sha256_prefix ^ digest in
  let tlen = String.length t in
  let b = Bytes.make k '\xff' in
  Bytes.set b 0 '\x00';
  Bytes.set b 1 '\x01';
  Bytes.set b (k - tlen - 1) '\x00';
  Bytes.blit_string t 0 b (k - tlen) tlen;
  Bytes.unsafe_to_string b

let sign (priv : priv) digest =
  Aqv_util.Metrics.add_sign ();
  let m = Z.of_bytes_be (encode_digest priv.k digest) in
  (* CRT: m^d mod n from the two half-size exponentiations *)
  let mp = Z.mod_pow_mont priv.pm ~base:m ~exp:priv.dp in
  let mq = Z.mod_pow_mont priv.qm ~base:m ~exp:priv.dq in
  let h = Z.erem (Z.mul priv.qinv (Z.sub mp mq)) priv.p in
  let s = Z.add mq (Z.mul h priv.q) in
  Z.to_bytes_be ~width:priv.k s

let verify (pub : pub) digest signature =
  Aqv_util.Metrics.add_verify ();
  if String.length signature <> pub.k then false
  else begin
    let s = Z.of_bytes_be signature in
    if Z.compare s pub.n >= 0 then false
    else begin
      let m = Z.mod_pow_mont pub.nm ~base:s ~exp:pub.e in
      String.equal (Z.to_bytes_be ~width:pub.k m) (encode_digest pub.k digest)
    end
  end

let signature_size (pub : pub) = pub.k

let encode_pub w (pub : pub) =
  Aqv_util.Wire.bytes w (Z.to_bytes_be pub.n);
  Aqv_util.Wire.bytes w (Z.to_bytes_be pub.e)

let decode_pub r : pub =
  let n = Z.of_bytes_be (Aqv_util.Wire.read_bytes r) in
  let e = Z.of_bytes_be (Aqv_util.Wire.read_bytes r) in
  let k = (Z.bit_length n + 7) / 8 in
  (* [Z.mont] refuses an even or oversized modulus *)
  match Z.mont n with
  | exception Invalid_argument _ -> failwith "Rsa.decode_pub: bad modulus"
  | nm ->
    if k < min_modulus_bytes then failwith "Rsa.decode_pub: modulus too small for digest";
    if Z.compare e Z.two < 0 || Z.compare e n >= 0 then failwith "Rsa.decode_pub: bad exponent";
    { n; e; nm; k }
