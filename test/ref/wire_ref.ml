(* The reference codec for [Aqv_util.Wire]: the plain implementation the
   library ran before its writer became a growable [Bytes] and its reader
   lost its per-call closures, kept as it was. A [Buffer] written one
   byte at a time and a recursive reader; the byte format and the
   failures ([Failure "Wire: truncated"], [Failure "Wire: varint
   overflow"], [Invalid_argument] from the writers) are the contract the
   qchecks in test_util hold the library to. *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents w = Buffer.contents w
let size w = Buffer.length w

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let varint w v =
  if v < 0 then invalid_arg "Wire.varint";
  let rec go v =
    if v < 0x80 then u8 w v
    else begin
      u8 w (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let int w v =
  (* zigzag: maps 0,-1,1,-2,... to 0,1,2,3,...; the wrapped 63-bit
     pattern is written with logical shifts so the whole int range
     round-trips *)
  let z = (v lsl 1) lxor (v asr 62) in
  let rec go z =
    if z land lnot 0x7f = 0 then u8 w z
    else begin
      u8 w (0x80 lor (z land 0x7f));
      go (z lsr 7)
    end
  in
  go z

let bytes w s =
  varint w (String.length s);
  Buffer.add_string w s

let uint_be w v =
  if v < 0 then invalid_arg "Wire.uint_be";
  let rec width v k = if v < 0x100 then k else width (v lsr 8) (k + 1) in
  let k = width v 1 in
  varint w k;
  for i = k - 1 downto 0 do
    u8 w (v lsr (8 * i))
  done

let list w f xs =
  varint w (List.length xs);
  List.iter f xs

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let read_u8 r =
  if r.pos >= String.length r.data then failwith "Wire: truncated";
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* A 9th byte carries bits 56..62; bit 62 is the sign bit of an int,
   so it must be clear, as must the continuation bit: exactly the values
   [varint] writes. *)
let read_varint r =
  let rec go shift acc =
    let b = read_u8 r in
    if shift = 56 && b > 0x3f then failwith "Wire: varint overflow";
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_int r =
  let rec go shift acc =
    if shift > 63 then failwith "Wire: varint overflow";
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

(* A field's length prefix, checked against the bytes left (written so
   that a length near [max_int] cannot overflow the check) *)
let read_length r =
  let n = read_varint r in
  if n > String.length r.data - r.pos then failwith "Wire: truncated";
  n

let read_bytes r =
  let n = read_length r in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_uint_be r =
  let start = r.pos in
  let n = read_length r in
  let stop = r.pos + n in
  let i = ref r.pos in
  while !i < stop && String.unsafe_get r.data !i = '\000' do
    incr i
  done;
  let len = stop - !i in
  if len > 8 || (len = 8 && Char.code (String.unsafe_get r.data !i) > 0x3f) then begin
    r.pos <- start;
    -1
  end
  else begin
    let v = ref 0 in
    for j = !i to stop - 1 do
      v := (!v lsl 8) lor Char.code (String.unsafe_get r.data j)
    done;
    r.pos <- stop;
    !v
  end

let read_list r f =
  let n = read_varint r in
  List.init n (fun _ -> f r)

(* Every element costs at least one byte, so a count larger than the
   bytes left is a lie: refuse it before [Array.init] allocates it. *)
let read_array r f =
  let n = read_varint r in
  if n > String.length r.data - r.pos then failwith "Wire: truncated";
  Array.init n (fun _ -> f r)
