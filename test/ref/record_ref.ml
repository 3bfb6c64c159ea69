(* Reference encoder for [Aqv_db.Record]: the field-by-field encoding
   the library wrote for every record on every call before a record
   kept its bytes, written against the public accessors. The qchecks in
   test_db hold [Record.encode] and [Record.digest] to it, whether the
   record's cached bytes are empty or filled. *)

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
