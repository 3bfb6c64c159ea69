let hexdigit = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hexdigit.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hexdigit.[c land 0xf]
  done;
  Bytes.unsafe_to_string b
