module Q = Aqv_num.Rational
module W = Aqv_util.Wire

(* [bytes] is the canonical encoding of the other three fields, or [""]
   until the first [encode] or [digest] fills it (an encoding is never
   empty: it holds at least an id, a count and a payload length). *)
type t = { id : int; attrs : Q.t array; payload : string; mutable bytes : string }

let make ~id ~attrs ?(payload = "") () = { id; attrs = Array.copy attrs; payload; bytes = "" }
let id t = t.id
let attr t i = t.attrs.(i)
let arity t = Array.length t.attrs
let payload t = t.payload

let affine t ~const x =
  if Array.length x > Array.length t.attrs then invalid_arg "Record.affine: arity";
  Q.affine_unreduced const t.attrs x

let equal a b =
  a == b
  || a.id = b.id && String.equal a.payload b.payload
     && Array.length a.attrs = Array.length b.attrs
     && Array.for_all2 Q.equal a.attrs b.attrs

let pp ppf t =
  Format.fprintf ppf "#%d(%a)%s" t.id
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Q.pp)
    (Array.to_list t.attrs)
    (if t.payload = "" then "" else " " ^ t.payload)

(* Field by field, from the record's own fields: the bytes are canonical
   by construction, whatever bytes the record was decoded from. *)
let encode_fields t =
  let w = W.writer () in
  W.varint w t.id;
  W.varint w (Array.length t.attrs);
  Array.iter (Q.encode w) t.attrs;
  W.bytes w t.payload;
  W.contents w

(* The field is read once: see the interface for why a racing fill is
   harmless. *)
let bytes t =
  let b = t.bytes in
  if String.length b > 0 then b
  else begin
    let b = encode_fields t in
    t.bytes <- b;
    b
  end

let encode w t = W.raw w (bytes t)

(* One or two attributes go straight into an array literal, without
   [Wire.read_array]'s [Array.make] and closure calls. *)
let decode_attrs r =
  match W.read_length r with
  | 1 -> [| Q.decode r |]
  | 2 -> let a = Q.decode r in [| a; Q.decode r |]
  | n -> Array.init n (fun _ -> Q.decode r)

(* The intern table (see the interface). A slot changes by one store of
   a whole immutable entry; [empty], never matched, fills unused ones. *)
type entry = { span : string; record : t }

let slots = 1 lsl 14
let empty = { span = ""; record = make ~id:0 ~attrs:[||] () }
let interned = Array.make slots empty

let decode r =
  let start = W.position r in
  let id = W.read_varint r in
  let slot = id land (slots - 1) in
  let e = interned.(slot) in
  if e != empty && W.consume_from r start e.span then e.record
  else begin
    let attrs = decode_attrs r in
    let payload = W.read_bytes r in
    let record = { id; attrs; payload; bytes = "" } in
    interned.(slot) <- { span = W.since r start; record };
    record
  end

(* Domain-separation tags keep record commitments, the min sentinel and
   the max sentinel in disjoint digest spaces. *)
let digest t = Aqv_crypto.Sha256.digest_list [ "\x00"; bytes t ]

let min_sentinel_digest = Aqv_crypto.Sha256.digest "\x01AQV_MIN"
let max_sentinel_digest = Aqv_crypto.Sha256.digest "\x02AQV_MAX"
