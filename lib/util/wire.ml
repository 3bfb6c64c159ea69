(* The writer is a growable byte buffer. Every primitive reserves its
   worst case once and then stores unchecked; [base] bytes at the front
   are held back for a header the caller fills last. *)
type writer = { mutable buf : Bytes.t; mutable len : int; base : int }

let writer_after base = { buf = Bytes.create (256 + base); len = base; base }
let writer () = writer_after 0
let contents w = Bytes.sub_string w.buf w.base (w.len - w.base)
let size w = w.len - w.base
let reset w = w.len <- w.base

let buffer_with_header w header =
  if String.length header <> w.base then invalid_arg "Wire.contents_with_header";
  Bytes.blit_string header 0 w.buf 0 w.base;
  w.buf

let contents_with_header w header = Bytes.sub_string (buffer_with_header w header) 0 w.len

let grow w need =
  let cap = max (w.len + need) (2 * Bytes.length w.buf) in
  let buf = Bytes.create cap in
  Bytes.blit w.buf 0 buf 0 w.len;
  w.buf <- buf

let[@inline] reserve w need = if w.len + need > Bytes.length w.buf then grow w need

(* the most bytes a varint of any 63-bit pattern takes *)
let varint_max = 9

let[@inline] store buf pos v = Bytes.unsafe_set buf pos (Char.unsafe_chr (v land 0xff))

(* LEB128 of a 63-bit pattern read as unsigned, stored at [pos] with room
   already reserved; returns the position after it *)
let store_varint buf pos v =
  let v = ref v and pos = ref pos in
  while !v land lnot 0x7f <> 0 do
    store buf !pos (0x80 lor (!v land 0x7f));
    v := !v lsr 7;
    incr pos
  done;
  store buf !pos !v;
  !pos + 1

let u8 w v =
  reserve w 1;
  store w.buf w.len v;
  w.len <- w.len + 1

let varint w v =
  if v < 0 then invalid_arg "Wire.varint";
  reserve w varint_max;
  w.len <- store_varint w.buf w.len v

(* zigzag: maps 0,-1,1,-2,... to 0,1,2,3,...; the wrapped 63-bit pattern
   is written with logical shifts so the whole int range round-trips *)
let int w v =
  reserve w varint_max;
  w.len <- store_varint w.buf w.len ((v lsl 1) lxor (v asr 62))

let bytes w s =
  let n = String.length s in
  reserve w (varint_max + n);
  let pos = store_varint w.buf w.len n in
  Bytes.unsafe_blit_string s 0 w.buf pos n;
  w.len <- pos + n

let raw w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* the bytes of a non-negative int's minimal big-endian form, one for 0 *)
let width v =
  if v < 0x100 then 1
  else if v < 0x1_0000 then 2
  else if v < 0x100_0000 then 3
  else if v < 0x1_0000_0000 then 4
  else if v < 0x100_0000_0000 then 5
  else if v < 0x1_0000_0000_0000 then 6
  else if v < 0x100_0000_0000_0000 then 7
  else 8

let uint_be w v =
  if v < 0 then invalid_arg "Wire.uint_be";
  let k = width v in
  reserve w (k + 1);
  let buf = w.buf and pos = w.len in
  store buf pos k;
  for i = 1 to k do
    store buf (pos + i) (v lsr (8 * (k - i)))
  done;
  w.len <- pos + k + 1

let list w f xs =
  varint w (List.length xs);
  List.iter f xs

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let truncated () = failwith "Wire: truncated"
let overflow () = failwith "Wire: varint overflow"

let[@inline] read_u8 r =
  let pos = r.pos in
  if pos >= String.length r.data then truncated ();
  r.pos <- pos + 1;
  Char.code (String.unsafe_get r.data pos)

(* A 9th byte carries bits 56..62; bit 62 is the sign bit of an int,
   so it must be clear, as must the continuation bit: exactly the values
   [varint] writes. A one-byte varint (every length below 128) takes
   the first branch. The loop has no call inside, so its state stays in
   registers, and it raises after it ends: [stop] is 0 while reading,
   then 1 (done), 2 (truncated) or 3 (overflow). On failure the reader
   stops after the last byte read, as a byte-at-a-time reader would. *)
let[@inline] read_varint r =
  let data = r.data and pos = r.pos in
  let len = String.length data in
  if pos < len && Char.code (String.unsafe_get data pos) < 0x80 then begin
    r.pos <- pos + 1;
    Char.code (String.unsafe_get data pos)
  end
  else begin
    let pos = ref pos and shift = ref 0 and acc = ref 0 and stop = ref 0 in
    while !stop = 0 do
      if !pos >= len then stop := 2
      else begin
        let b = Char.code (String.unsafe_get data !pos) in
        incr pos;
        if !shift = 56 && b > 0x3f then stop := 3
        else begin
          acc := !acc lor ((b land 0x7f) lsl !shift);
          if b < 0x80 then stop := 1 else shift := !shift + 7
        end
      end
    done;
    r.pos <- !pos;
    match !stop with 1 -> !acc | 2 -> truncated () | _ -> overflow ()
  end

(* Up to ten bytes: a tenth carries bit 63, which the shift drops. The
   loop is [read_varint]'s. *)
let read_int r =
  let data = r.data in
  let len = String.length data in
  let pos = ref r.pos and shift = ref 0 and acc = ref 0 and stop = ref 0 in
  while !stop = 0 do
    if !shift > 63 then stop := 3
    else if !pos >= len then stop := 2
    else begin
      let b = Char.code (String.unsafe_get data !pos) in
      incr pos;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      if b < 0x80 then stop := 1 else shift := !shift + 7
    end
  done;
  r.pos <- !pos;
  match !stop with
  | 1 ->
    let z = !acc in
    (z lsr 1) lxor (-(z land 1))
  | 2 -> truncated ()
  | _ -> overflow ()

(* A field's length prefix, checked against the bytes left (written so
   that a length near [max_int] cannot overflow the check) *)
let[@inline] read_length r =
  let n = read_varint r in
  if n > String.length r.data - r.pos then truncated ();
  n

let read_bytes r =
  let n = read_length r in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let[@inline] read_uint_be r =
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

let read_signed_uint_be r =
  let start = r.pos in
  let negative = read_u8 r = 1 in
  let v = read_uint_be r in
  if v < 0 then (r.pos <- start; min_int) else if negative then -v else v

let position r = r.pos
let since r start = String.sub r.data start (r.pos - start)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* eight bytes at a time, then the last few *)
let consume_from r start s =
  let n = String.length s and d = r.data and i = ref 0 in
  let fits = start >= 0 && n <= String.length d - start in
  while fits && !i + 8 <= n && (get64u s !i : int64) = get64u d (start + !i) do i := !i + 8 done;
  while fits && !i < n && String.unsafe_get s !i = String.unsafe_get d (start + !i) do incr i done;
  fits && !i = n && (r.pos <- start + n; true)

(* built in order, in constant stack, with no reversed copy *)
let[@tail_mod_cons] rec read_elements r f k =
  if k = 0 then []
  else
    let x = f r in
    x :: read_elements r f (k - 1)

let read_list r f = read_elements r f (read_varint r)

(* Every element costs at least one byte, so a count larger than the
   bytes left is a lie: refuse it before the array is allocated. *)
let read_array r f =
  let n = read_length r in
  if n = 0 then [||]
  else begin
    let a = Array.make n (f r) in
    for i = 1 to n - 1 do
      a.(i) <- f r
    done;
    a
  end
