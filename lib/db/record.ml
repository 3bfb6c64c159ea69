module Q = Aqv_num.Rational
module W = Aqv_util.Wire

type t = { id : int; attrs : Q.t array; payload : string }

let make ~id ~attrs ?(payload = "") () = { id; attrs = Array.copy attrs; payload }
let id t = t.id
let attr t i = t.attrs.(i)
let arity t = Array.length t.attrs
let payload t = t.payload

let equal a b =
  a.id = b.id && a.payload = b.payload
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 Q.equal a.attrs b.attrs

let pp ppf t =
  Format.fprintf ppf "#%d(%a)%s" t.id
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Q.pp)
    (Array.to_list t.attrs)
    (if t.payload = "" then "" else " " ^ t.payload)

let encode w t =
  W.varint w t.id;
  W.varint w (Array.length t.attrs);
  Array.iter (Q.encode w) t.attrs;
  W.bytes w t.payload

let decode r =
  let id = W.read_varint r in
  let attrs = W.read_array r Q.decode in
  let payload = W.read_bytes r in
  { id; attrs; payload }

(* Domain-separation tags keep record commitments, the min sentinel and
   the max sentinel in disjoint digest spaces. *)
let digest t =
  let w = W.writer () in
  encode w t;
  Aqv_crypto.Sha256.digest_list [ "\x00"; W.contents w ]

let min_sentinel_digest = Aqv_crypto.Sha256.digest "\x01AQV_MIN"
let max_sentinel_digest = Aqv_crypto.Sha256.digest "\x02AQV_MAX"
