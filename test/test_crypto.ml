(* Tests for the cryptographic substrate: SHA-256 against FIPS/NIST
   vectors, HMAC against RFC 4231 vectors, Miller-Rabin against known
   primes/composites, RSA and DSA round trips and tamper rejection. *)

module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng
open Aqv_crypto
module Bigint_ref = Aqv_ref.Bigint_ref
module Prime_ref = Aqv_ref.Prime_ref
module Sha256_ref = Aqv_ref.Sha256_ref

let check = Alcotest.check

(* [long_factor] multiplies [count] under QCHECK_LONG=1 *)
let qtest ?(count = 200) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

(* ------------------------------ SHA-256 ----------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    (* 896 bits: the two-block NIST vector *)
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expect) -> check Alcotest.string msg expect (Sha256.hex (Sha256.digest msg)))
    sha_vectors

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  for _ = 1 to 10_000 do
    Sha256.feed ctx (String.make 100 'a')
  done;
  check Alcotest.string "1M a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let test_sha256_streaming_agrees () =
  (* all split points across two block boundaries *)
  let msg = String.init 150 (fun i -> Char.chr (i land 0xff)) in
  let whole = Sha256.digest msg in
  for cut = 0 to 150 do
    let ctx = Sha256.init () in
    Sha256.feed ctx (String.sub msg 0 cut);
    Sha256.feed ctx (String.sub msg cut (150 - cut));
    if not (String.equal (Sha256.finalize ctx) whole) then
      Alcotest.failf "split at %d disagrees" cut
  done

let test_sha256_digest_list () =
  check Alcotest.string "digest_list = digest of concat"
    (Sha256.hex (Sha256.digest "foobarbaz"))
    (Sha256.hex (Sha256.digest_list [ "foo"; "bar"; "baz" ]))

let test_sha256_counts_metrics () =
  Aqv_util.Metrics.reset ();
  ignore (Sha256.digest "hello");
  let s = Aqv_util.Metrics.snapshot () in
  check Alcotest.int "one hash op" 1 s.hash_ops;
  check Alcotest.int "bytes" 5 s.hash_bytes

let test_sha256_finalize_twice () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "second finalize"
    (Invalid_argument "Sha256.finalize: already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let sha_padding_lengths =
  (* exercise every padding branch: lengths around 55/56/63/64 *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"length-extension padding"
       QCheck.(int_bound 200)
       (fun n ->
         let msg = String.make n 'x' in
         let d1 = Sha256.digest msg in
         let ctx = Sha256.init () in
         String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
         String.equal d1 (Sha256.finalize ctx)))

(* The C kernel against the pure-OCaml oracle (test/ref/sha256_ref.ml).
   [Sha256.kernel] names the body the one-shot and streaming paths run;
   [digest_list_portable] runs the other one where this CPU has the SHA
   extensions, so both bodies meet the oracle on every machine. *)

let random_string rng n = String.init n (fun _ -> Char.chr (Prng.int rng 256))

(* [s] cut at random points into fragments, empty ones included *)
let random_cuts rng s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n && Prng.int rng 4 > 0 then List.rev acc
    else
      let take = if pos = n then 0 else Prng.int rng (min (n - pos) 70 + 1) in
      go (pos + take) (String.sub s pos take :: acc)
  in
  go 0 []

let sha_fragmentations =
  qtest ~count:20 "kernel = oracle, every length 0-300, random fragments" QCheck.int (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      for n = 0 to 300 do
        let parts = random_cuts rng (random_string rng n) in
        let want = Sha256_ref.digest_list parts in
        let streamed =
          let ctx = Sha256.init () in
          List.iter (Sha256.feed ctx) parts;
          Sha256.finalize ctx
        in
        List.iter
          (fun (what, got) ->
            if not (String.equal got want) then
              Alcotest.failf "%s differs from the oracle at length %d (%d fragments, kernel %s)" what
                n (List.length parts) Sha256.kernel)
          [
            ("digest_list", Sha256.digest_list parts);
            ("digest_list_portable", Sha256.digest_list_portable parts);
            ("init/feed/finalize", streamed);
          ]
      done;
      true)

let sha_copy_mid_block =
  qtest ~count:300 "copy mid-block = oracle"
    QCheck.(triple (int_bound 200) (int_bound 150) (int_bound 150))
    (fun (p, a, b) ->
      let rng = Prng.create (Int64.of_int ((p * 40_000) + (a * 200) + b)) in
      let prefix = random_string rng p in
      let sa = random_string rng a and sb = random_string rng b in
      let ctx = Sha256.init () in
      Sha256.feed ctx prefix;
      let other = Sha256.copy ctx in
      Sha256.feed ctx sa;
      let da = Sha256.finalize ctx in
      Sha256.feed other sb;
      let db = Sha256.finalize other in
      String.equal da (Sha256_ref.digest (prefix ^ sa))
      && String.equal db (Sha256_ref.digest (prefix ^ sb)))

(* ------------------------------- HMAC ------------------------------ *)

let test_hmac_rfc4231 () =
  let t1 = Hmac.mac ~key:(String.make 20 '\x0b') "Hi There" in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Aqv_util.Hex.encode t1);
  let t2 = Hmac.mac ~key:"Jefe" "what do ya want for nothing?" in
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Aqv_util.Hex.encode t2)

let test_hmac_long_key () =
  (* keys longer than the block size are hashed first; just check
     determinism and key sensitivity *)
  let key = String.make 100 'k' in
  let a = Hmac.mac ~key "msg" and b = Hmac.mac ~key "msg" in
  check Alcotest.string "deterministic" (Aqv_util.Hex.encode a) (Aqv_util.Hex.encode b);
  let c = Hmac.mac ~key:(String.make 100 'j') "msg" in
  check Alcotest.bool "key sensitive" true (a <> c)

(* ------------------------------ primes ----------------------------- *)

let test_small_primality () =
  let rng = Prng.create 1L in
  let primes = [ 2; 3; 5; 7; 97; 65537; 1000000007 ] in
  let composites = [ 0; 1; 4; 9; 561 (* Carmichael *); 65536; 1000000008; 341550071728321 ] in
  List.iter
    (fun p ->
      if not (Prime_ref.is_prime rng (Z.of_int p)) then Alcotest.failf "%d should be prime" p)
    primes;
  List.iter
    (fun c ->
      if Prime_ref.is_prime rng (Z.of_int c) then Alcotest.failf "%d should be composite" c)
    composites

let test_big_primality () =
  let rng = Prng.create 2L in
  let m127 = Z.of_string "170141183460469231731687303715884105727" in
  check Alcotest.bool "2^127-1 prime" true (Prime_ref.is_prime rng m127);
  check Alcotest.bool "2^127-3 composite" false (Prime_ref.is_prime rng (Z.sub m127 Z.two));
  (* RSA-100 challenge modulus: a known semiprime *)
  let rsa100 =
    Z.of_string
      "1522605027922533360535618378132637429718068114961380688657908494580122963258952897654000350692006139"
  in
  check Alcotest.bool "RSA-100 composite" false (Prime_ref.is_prime rng rsa100)

let test_gen_prime () =
  let rng = Prng.create 3L in
  List.iter
    (fun bits ->
      let p = Prime.gen_prime rng ~bits in
      check Alcotest.int (Printf.sprintf "%d-bit" bits) bits (Z.bit_length p);
      check Alcotest.bool "is prime" true (Prime_ref.is_prime rng p))
    [ 8; 16; 32; 64; 128 ]

let test_gen_congruent_prime () =
  let rng = Prng.create 4L in
  let q = Prime.gen_prime rng ~bits:40 in
  let p = Prime.gen_safe_candidate rng ~bits:96 ~residue:Z.one ~modulus:q in
  check Alcotest.bool "p prime" true (Prime_ref.is_prime rng p);
  check Alcotest.bool "p = 1 mod q" true (Z.equal (Z.erem p q) Z.one);
  check Alcotest.int "p bits" 96 (Z.bit_length p)

(* ------------------------------- RSA -------------------------------- *)

let rsa_keys = lazy (Rsa.generate ~bits:512 (Prng.create 100L))

let test_rsa_roundtrip () =
  let priv, pub = Lazy.force rsa_keys in
  let d = Sha256.digest "a message" in
  let s = Rsa.sign priv d in
  check Alcotest.int "signature size" 64 (String.length s);
  check Alcotest.bool "verifies" true (Rsa.verify pub d s)

let test_rsa_rejects_wrong_digest () =
  let priv, pub = Lazy.force rsa_keys in
  let s = Rsa.sign priv (Sha256.digest "a message") in
  check Alcotest.bool "wrong digest" false (Rsa.verify pub (Sha256.digest "b message") s)

let test_rsa_rejects_bitflip () =
  let priv, pub = Lazy.force rsa_keys in
  let d = Sha256.digest "a message" in
  let s = Bytes.of_string (Rsa.sign priv d) in
  Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
  check Alcotest.bool "flipped bit" false (Rsa.verify pub d (Bytes.to_string s))

let test_rsa_rejects_bad_length () =
  let _, pub = Lazy.force rsa_keys in
  check Alcotest.bool "short sig" false (Rsa.verify pub (Sha256.digest "m") "short")

let test_rsa_cross_key () =
  let priv, _ = Lazy.force rsa_keys in
  let _, pub2 = Rsa.generate ~bits:512 (Prng.create 101L) in
  let d = Sha256.digest "a message" in
  check Alcotest.bool "other key" false (Rsa.verify pub2 d (Rsa.sign priv d))

(* Known answers, recorded before the Montgomery kernel was rewritten.
   PKCS#1 v1.5 signing is deterministic, so any arithmetic change that
   moves one signature byte fails here. *)
let rsa_known_signature =
  "63b5875d8a1618dd87926dfd68ff422a5ca86abbf0be183cee8b7e69fe5be59c"
  ^ "fb9cb065f87b031d291a6187bc5a9b60e6c641e4b3c19435904536a5f846af92"

let test_rsa_known_answer () =
  let priv, pub = Lazy.force rsa_keys in
  let d = Sha256.digest "a message" in
  let s = Rsa.sign priv d in
  check Alcotest.string "signature" rsa_known_signature (Aqv_util.Hex.encode s);
  check Alcotest.bool "verifies" true (Rsa.verify pub d s)

(* Public keys arrive from the wire: the decoder must refuse anything
   the verifier cannot check, with [Failure], so that a forged key is a
   typed rejection instead of an exception escaping [Client.verify]. *)
let rsa_pub_of n e =
  let w = Aqv_util.Wire.writer () in
  Aqv_util.Wire.bytes w (Z.to_bytes_be n);
  Aqv_util.Wire.bytes w (Z.to_bytes_be e);
  Rsa.decode_pub (Aqv_util.Wire.reader (Aqv_util.Wire.contents w))

let refuses what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Failure _ -> ()

(* A public key's modulus and exponent, read back from its wire form *)
let rsa_pub_parts pub =
  let w = Aqv_util.Wire.writer () in
  Rsa.encode_pub w pub;
  let r = Aqv_util.Wire.reader (Aqv_util.Wire.contents w) in
  let n = Z.of_bytes_be (Aqv_util.Wire.read_bytes r) in
  (n, Z.of_bytes_be (Aqv_util.Wire.read_bytes r))

let real_rsa_modulus () = fst (rsa_pub_parts (snd (Lazy.force rsa_keys)))

let e65537 = Z.of_int 65537

let test_rsa_decode_short_modulus () =
  (* 61 bytes: too small for the SHA-256 DigestInfo padding *)
  let n = Z.succ (Z.shift_left Z.one 487) in
  refuses "61-byte modulus" (fun () -> rsa_pub_of n e65537)

let test_rsa_decode_even_modulus () =
  refuses "even modulus" (fun () -> rsa_pub_of (Z.succ (real_rsa_modulus ())) e65537)

let test_rsa_decode_oversized_modulus () =
  let n = Z.succ (Z.shift_left Z.one 8192) in
  refuses "8193-bit modulus" (fun () -> rsa_pub_of n e65537)

let test_rsa_decode_exponent_range () =
  let n = real_rsa_modulus () in
  refuses "e = n" (fun () -> rsa_pub_of n n);
  refuses "e > n" (fun () -> rsa_pub_of n (Z.add n Z.two))

(* A hostile key at the kernel's limit: an odd 8192-bit modulus nobody
   can factor decodes (the verifier can check against it), and garbage
   of every shape verifies as [false] without raising; one bit more is
   refused at decode. *)
let test_rsa_decode_hostile_8192 () =
  let rng = Prng.create 8192L in
  let odd_of_bits bits =
    Z.add (Z.shift_left Z.one (bits - 1)) (Z.succ (Z.shift_left (Z.random_bits rng (bits - 2)) 1))
  in
  let n = odd_of_bits 8192 in
  let pub = rsa_pub_of n e65537 in
  let d = Sha256.digest "hostile" in
  let k = 1024 in
  let garbage =
    [
      String.make k '\000';
      Z.to_bytes_be ~width:k Z.one;
      Z.to_bytes_be ~width:k (Z.pred n);
      Z.to_bytes_be ~width:k (Z.random_below rng n);
      Z.to_bytes_be ~width:k (Z.random_below rng n);
      String.make k '\xff' (* >= n *);
      String.make (k - 1) '\x01' (* wrong length *);
    ]
  in
  List.iteri
    (fun i s ->
      match Rsa.verify pub d s with
      | false -> ()
      | true -> Alcotest.failf "garbage %d verified" i
      | exception e -> Alcotest.failf "garbage %d raised %s" i (Printexc.to_string e))
    garbage;
  refuses "hostile 8193-bit modulus" (fun () -> rsa_pub_of (odd_of_bits 8193) e65537)

let rsa_sign_verify_many =
  qtest ~count:30 "rsa roundtrip (random messages)" QCheck.string (fun m ->
      let priv, pub = Lazy.force rsa_keys in
      let d = Sha256.digest m in
      Rsa.verify pub d (Rsa.sign priv d))

(* Fresh RSA-512 and RSA-1024 keys: s^e mod n by plain
   square-and-multiply ([Bigint_ref.mod_pow_plain], no Montgomery
   kernel) must give back the PKCS#1 v1.5 encoding of the digest,
   written out here from RFC 8017 section 9.2. Key generation, the CRT
   halves (4 and 8 limbs) and the prime tests all run on the kernel.
   Not shrunk: on a broken kernel key generation runs its attempts out,
   seconds a case. *)
let pkcs1_sha256 k digest =
  let t = "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20" ^ digest in
  "\x00\x01" ^ String.make (k - String.length t - 3) '\xff' ^ "\x00" ^ t

let rsa_plain_oracle =
  qtest ~count:5 ~long_factor:20 "rsa s^e = PKCS#1 encoding (plain modexp, fresh keys)"
    (QCheck.set_shrink QCheck.Shrink.nil QCheck.int) (fun seed ->
      List.for_all
        (fun bits ->
          let priv, pub = Rsa.generate ~bits (Prng.create (Int64.of_int seed)) in
          let n, e = rsa_pub_parts pub in
          let d = Sha256.digest (string_of_int seed) in
          let s = Rsa.sign priv d in
          let k = bits / 8 in
          String.length s = k
          && String.equal (pkcs1_sha256 k d)
               (Z.to_bytes_be ~width:k
                  (Bigint_ref.mod_pow_plain ~base:(Z.of_bytes_be s) ~exp:e ~modulus:n)))
        [ 512; 1024 ])

(* ------------------------------- DSA -------------------------------- *)

let dsa_ctx =
  lazy
    (let rng = Prng.create 200L in
     let dom = Dsa.gen_params ~lbits:512 ~nbits:160 rng in
     Dsa.generate dom rng)

let test_dsa_roundtrip () =
  let priv, pub = Lazy.force dsa_ctx in
  let d = Sha256.digest "a message" in
  let s = Dsa.sign priv d in
  check Alcotest.bool "verifies" true (Dsa.verify pub d s);
  check Alcotest.bool "size small" true (String.length s <= Dsa.signature_size pub)

let test_dsa_deterministic () =
  let priv, _ = Lazy.force dsa_ctx in
  let d = Sha256.digest "a message" in
  check Alcotest.string "same signature" (Dsa.sign priv d) (Dsa.sign priv d)

let test_dsa_rejects_wrong_digest () =
  let priv, pub = Lazy.force dsa_ctx in
  let s = Dsa.sign priv (Sha256.digest "a") in
  check Alcotest.bool "wrong digest" false (Dsa.verify pub (Sha256.digest "b") s)

let test_dsa_rejects_bitflip () =
  let priv, pub = Lazy.force dsa_ctx in
  let d = Sha256.digest "a message" in
  let s = Bytes.of_string (Dsa.sign priv d) in
  Bytes.set s 5 (Char.chr (Char.code (Bytes.get s 5) lxor 4));
  check Alcotest.bool "flipped bit" false (Dsa.verify pub d (Bytes.to_string s))

let test_dsa_rejects_garbage () =
  let _, pub = Lazy.force dsa_ctx in
  check Alcotest.bool "garbage" false (Dsa.verify pub (Sha256.digest "m") "nonsense")

let dsa_known_signature =
  "145da25b529f94d7f9ea3ab095aa00dd7a59fa3ed7142b5e7f7edc4d16f65336f04f7c1a47dfb1c3aab0"

let test_dsa_known_answer () =
  let priv, pub = Lazy.force dsa_ctx in
  let d = Sha256.digest "a message" in
  let s = Dsa.sign priv d in
  check Alcotest.string "signature" dsa_known_signature (Aqv_util.Hex.encode s);
  check Alcotest.bool "verifies" true (Dsa.verify pub d s)

let dsa_pub_of ~p ~q ~g ~y =
  let w = Aqv_util.Wire.writer () in
  List.iter (fun v -> Aqv_util.Wire.bytes w (Z.to_bytes_be v)) [ p; q; g; y ];
  Dsa.decode_pub (Aqv_util.Wire.reader (Aqv_util.Wire.contents w))

let test_dsa_decode_even_p () =
  refuses "even p" (fun () ->
      dsa_pub_of ~p:(Z.of_int 32) ~q:(Z.of_int 7) ~g:Z.two ~y:(Z.of_int 3))

let test_dsa_decode_oversized_p () =
  refuses "8193-bit p" (fun () ->
      dsa_pub_of ~p:(Z.succ (Z.shift_left Z.one 8192)) ~q:(Z.of_int 7) ~g:Z.two ~y:(Z.of_int 3))

let test_dsa_verify_composite_q () =
  (* q = 15 decodes (the decoder does not test primality), and s = 5
     has no inverse mod 15: verification must say no, not raise *)
  let pub = dsa_pub_of ~p:(Z.of_int 31) ~q:(Z.of_int 15) ~g:Z.two ~y:(Z.of_int 3) in
  let w = Aqv_util.Wire.writer () in
  Aqv_util.Wire.bytes w (Z.to_bytes_be Z.one);
  Aqv_util.Wire.bytes w (Z.to_bytes_be (Z.of_int 5));
  check Alcotest.bool "no inverse" false
    (Dsa.verify pub (Sha256.digest "m") (Aqv_util.Wire.contents w))

let dsa_sign_verify_many =
  qtest ~count:20 "dsa roundtrip (random messages)" QCheck.string (fun m ->
      let priv, pub = Lazy.force dsa_ctx in
      let d = Sha256.digest m in
      Dsa.verify pub d (Dsa.sign priv d))

(* ------------------------------ Signer ------------------------------ *)

let test_signer_both_algorithms () =
  let rng = Prng.create 300L in
  List.iter
    (fun alg ->
      let kp = Signer.generate ~bits:512 alg rng in
      let d = Sha256.digest "payload" in
      let s = kp.Signer.sign d in
      check Alcotest.bool (Signer.algorithm_name alg) true (kp.Signer.verify d s);
      check Alcotest.bool "tamper" false (kp.Signer.verify (Sha256.digest "other") s))
    [ Signer.Rsa; Signer.Dsa ]

let test_signer_metrics () =
  Aqv_util.Metrics.reset ();
  let rng = Prng.create 301L in
  let kp = Signer.generate ~bits:512 Signer.Rsa rng in
  let d = Sha256.digest "x" in
  let before = Aqv_util.Metrics.snapshot () in
  let s = kp.Signer.sign d in
  ignore (kp.Signer.verify d s);
  let after = Aqv_util.Metrics.snapshot () in
  let delta = Aqv_util.Metrics.diff after before in
  check Alcotest.int "one sign" 1 delta.sign_ops;
  check Alcotest.int "one verify" 1 delta.verify_ops

let test_signer_dry_run () =
  Aqv_util.Metrics.reset ();
  let kp = Signer.counting_sign_dry_run ~signature_size:64 in
  let d = Sha256.digest "x" in
  let s = kp.Signer.sign d in
  check Alcotest.int "size" 64 (String.length s);
  check Alcotest.bool "never verifies" false (kp.Signer.verify d s);
  let snap = Aqv_util.Metrics.snapshot () in
  check Alcotest.int "counted" 1 snap.sign_ops

let () =
  Alcotest.run "aqv_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "one million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming splits" `Quick test_sha256_streaming_agrees;
          Alcotest.test_case "digest_list" `Quick test_sha256_digest_list;
          Alcotest.test_case "metrics counted" `Quick test_sha256_counts_metrics;
          Alcotest.test_case "finalize twice" `Quick test_sha256_finalize_twice;
          sha_padding_lengths;
          sha_fragmentations;
          sha_copy_mid_block;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small numbers" `Quick test_small_primality;
          Alcotest.test_case "big numbers" `Quick test_big_primality;
          Alcotest.test_case "generation" `Quick test_gen_prime;
          Alcotest.test_case "congruent generation" `Quick test_gen_congruent_prime;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "wrong digest" `Quick test_rsa_rejects_wrong_digest;
          Alcotest.test_case "bitflip" `Quick test_rsa_rejects_bitflip;
          Alcotest.test_case "bad length" `Quick test_rsa_rejects_bad_length;
          Alcotest.test_case "cross key" `Quick test_rsa_cross_key;
          Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
          Alcotest.test_case "decode refuses short modulus" `Quick test_rsa_decode_short_modulus;
          Alcotest.test_case "decode refuses even modulus" `Quick test_rsa_decode_even_modulus;
          Alcotest.test_case "decode refuses oversized modulus" `Quick
            test_rsa_decode_oversized_modulus;
          Alcotest.test_case "decode refuses exponent out of range" `Quick
            test_rsa_decode_exponent_range;
          rsa_sign_verify_many;
          rsa_plain_oracle;
          Alcotest.test_case "decode hostile 8192-bit modulus" `Quick test_rsa_decode_hostile_8192;
        ] );
      ( "dsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_dsa_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_dsa_deterministic;
          Alcotest.test_case "wrong digest" `Quick test_dsa_rejects_wrong_digest;
          Alcotest.test_case "bitflip" `Quick test_dsa_rejects_bitflip;
          Alcotest.test_case "garbage" `Quick test_dsa_rejects_garbage;
          Alcotest.test_case "known answer" `Quick test_dsa_known_answer;
          Alcotest.test_case "decode refuses even p" `Quick test_dsa_decode_even_p;
          Alcotest.test_case "decode refuses oversized p" `Quick test_dsa_decode_oversized_p;
          Alcotest.test_case "verify composite q" `Quick test_dsa_verify_composite_q;
          dsa_sign_verify_many;
        ] );
      ( "signer",
        [
          Alcotest.test_case "both algorithms" `Quick test_signer_both_algorithms;
          Alcotest.test_case "metrics" `Quick test_signer_metrics;
          Alcotest.test_case "dry run" `Quick test_signer_dry_run;
        ] );
    ]
