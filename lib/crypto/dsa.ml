module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng

type params = { p : Z.t; q : Z.t; g : Z.t; pm : Z.mont; qbytes : int }
type priv = { dom : params; x : Z.t }
type pub = { dom : params; y : Z.t }

let gen_params ?(lbits = 512) ?(nbits = 160) rng =
  if nbits >= lbits || lbits > 8192 then invalid_arg "Dsa.gen_params";
  let q = Prime.gen_prime rng ~bits:nbits in
  let p = Prime.gen_safe_candidate rng ~bits:lbits ~residue:Z.one ~modulus:q in
  let pm = Z.mont p in
  let p1q = Z.div (Z.pred p) q in
  let rec find_g () =
    let h = Z.add Z.two (Z.random_below rng (Z.sub p (Z.of_int 4))) in
    let g = Z.mod_pow_mont pm ~base:h ~exp:p1q in
    if Z.equal g Z.one then find_g () else g
  in
  { p; q; g = find_g (); pm; qbytes = (nbits + 7) / 8 }

let generate dom rng =
  let x = Z.succ (Z.random_below rng (Z.pred dom.q)) in
  let y = Z.mod_pow_mont dom.pm ~base:dom.g ~exp:x in
  ({ dom; x }, { dom; y })

(* Digest truncated to the bit length of q, as per FIPS 186-4 4.6. *)
let digest_scalar dom digest =
  let z = Z.of_bytes_be digest in
  let dbits = 8 * String.length digest in
  let qbits = Z.bit_length dom.q in
  if dbits > qbits then Z.shift_right z (dbits - qbits) else z

(* Deterministic nonce: k = HMAC(x, digest || attempt) widened and
   reduced mod q; nonzero by construction of the retry loop in [sign]. *)
let derive_nonce (priv : priv) digest attempt =
  let xbytes = Z.to_bytes_be priv.x in
  let seed = digest ^ String.make 1 (Char.chr (attempt land 0xff)) in
  let tag = Hmac.mac ~key:xbytes seed in
  let tag2 = Hmac.mac ~key:xbytes (tag ^ "\x01") in
  Z.erem (Z.of_bytes_be (tag ^ tag2)) priv.dom.q

let sign (priv : priv) digest =
  Aqv_util.Metrics.add_sign ();
  let dom = priv.dom in
  let z = digest_scalar dom digest in
  let rec go ctr =
    let k = derive_nonce priv digest ctr in
    if Z.is_zero k then go (ctr + 1)
    else begin
      let r = Z.erem (Z.mod_pow_mont dom.pm ~base:dom.g ~exp:k) dom.q in
      let kinv = Z.mod_inv k dom.q in
      let s = Z.erem (Z.mul kinv (Z.add z (Z.mul priv.x r))) dom.q in
      if Z.is_zero r || Z.is_zero s then go (ctr + 1)
      else render r s
    end
  and render r s =
    begin
      let w = Aqv_util.Wire.writer () in
      Aqv_util.Wire.bytes w (Z.to_bytes_be ~width:dom.qbytes r);
      Aqv_util.Wire.bytes w (Z.to_bytes_be ~width:dom.qbytes s);
      Aqv_util.Wire.contents w
    end
  in
  go 0

let verify (pub : pub) digest signature =
  Aqv_util.Metrics.add_verify ();
  let dom = pub.dom in
  match
    let rd = Aqv_util.Wire.reader signature in
    let r = Z.of_bytes_be (Aqv_util.Wire.read_bytes rd) in
    let s = Z.of_bytes_be (Aqv_util.Wire.read_bytes rd) in
    (r, s)
  with
  | exception _ -> false
  | r, s ->
    if Z.sign r <= 0 || Z.compare r dom.q >= 0 || Z.sign s <= 0 || Z.compare s dom.q >= 0 then
      false
    else begin
      (* a received q need not be prime: s may have no inverse *)
      match Z.mod_inv s dom.q with
      | exception Not_found -> false
      | w ->
        let z = digest_scalar dom digest in
        let u1 = Z.erem (Z.mul z w) dom.q in
        let u2 = Z.erem (Z.mul r w) dom.q in
        let v1 = Z.mod_pow_mont dom.pm ~base:dom.g ~exp:u1 in
        let v2 = Z.mod_pow_mont dom.pm ~base:pub.y ~exp:u2 in
        let v = Z.erem (Z.erem (Z.mul v1 v2) dom.p) dom.q in
        Z.equal v r
    end

let signature_size (pub : pub) = (2 * pub.dom.qbytes) + 2

let encode_pub w (pub : pub) =
  let module W = Aqv_util.Wire in
  W.bytes w (Z.to_bytes_be pub.dom.p);
  W.bytes w (Z.to_bytes_be pub.dom.q);
  W.bytes w (Z.to_bytes_be pub.dom.g);
  W.bytes w (Z.to_bytes_be pub.y)

let decode_pub r : pub =
  let module W = Aqv_util.Wire in
  let p = Z.of_bytes_be (W.read_bytes r) in
  let q = Z.of_bytes_be (W.read_bytes r) in
  let g = Z.of_bytes_be (W.read_bytes r) in
  let y = Z.of_bytes_be (W.read_bytes r) in
  if Z.compare q Z.two <= 0 || Z.compare p q <= 0 then failwith "Dsa.decode_pub";
  (* [Z.mont] refuses an even or oversized p *)
  match Z.mont p with
  | exception Invalid_argument _ -> failwith "Dsa.decode_pub: bad modulus"
  | pm -> { dom = { p; q; g; pm; qbytes = (Z.bit_length q + 7) / 8 }; y }
