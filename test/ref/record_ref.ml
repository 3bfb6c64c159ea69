(* Reference encoder and decoder for [Aqv_db.Record]: the field-by-field
   encoding the library wrote for every record on every call before a
   record kept its bytes, written against the public accessors, and the
   decode it ran before it kept an intern table. The qchecks in test_db
   hold [Record.encode] and [Record.digest] to the encoder, whether the
   record's cached bytes are empty or filled, and [Record.decode] to the
   decoder. *)

module W = Aqv_util.Wire
module Record = Aqv_db.Record

let encode w r =
  W.varint w (Record.id r);
  W.varint w (Record.arity r);
  for i = 0 to Record.arity r - 1 do
    Aqv_num.Rational.encode w (Record.attr r i)
  done;
  W.bytes w (Record.payload r)

let bytes r =
  let w = W.writer () in
  encode w r;
  W.contents w

(* [H(r)]: SHA-256 of the record tag then the canonical bytes, in one
   string *)
let digest r = Aqv_crypto.Sha256.digest ("\x00" ^ bytes r)

(* field by field on the public [Wire] and [Rational] readers, a fresh
   record every call *)
let decode r =
  let id = W.read_varint r in
  let attrs = W.read_array r Aqv_num.Rational.decode in
  let payload = W.read_bytes r in
  Record.make ~id ~attrs ~payload ()
