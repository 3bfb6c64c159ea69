(* Reference oracle for [Aqv_crypto.Sha256]: the pure-OCaml FIPS 180-4
   SHA-256 that the library ran before its C kernel. The qchecks in
   test_crypto hold [Sha256.digest_list], [Sha256.digest_list_portable]
   and the streaming interface to it over every length 0-300. *)

type digest = string

let digest_size = 32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask32 = 0xffffffff

type ctx = {
  h : int array;  (* 8 state words *)
  buf : Bytes.t;  (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total_len : int;  (* bytes fed so far *)
  mutable finalized : bool;
  w : int array;  (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total_len = 0;
    finalized = false;
    w = Array.make 64 0;
  }

(* The compression function is the hot loop of the whole system — the
   Merkle sweep alone runs it tens of millions of times per build — so
   the rotations are inlined with constant shifts and the array reads
   are unchecked (all indices are structurally in bounds: [w] and [k]
   have 64 entries, the caller guarantees 64 bytes at [off]). The high
   bits that a left shift spills past bit 31 are garbage, but they never
   reach a result: the low 32 bits of a sum or xor depend only on the
   low 32 bits of the operands, and every value that lands in [w] or
   the state is masked at assignment. Output is bit-for-bit the FIPS
   180-4 reference this replaced. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (t * 4) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block i) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (i + 3)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = (w15 lsr 7) lor (w15 lsl 25) lxor ((w15 lsr 18) lor (w15 lsl 14)) lxor (w15 lsr 3) in
    let s1 = (w2 lsr 17) lor (w2 lsl 15) lxor ((w2 lsr 19) lor (w2 lsl 13)) lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e_ = !e and a_ = !a in
    let s1 = (e_ lsr 6) lor (e_ lsl 26) lxor ((e_ lsr 11) lor (e_ lsl 21)) lxor ((e_ lsr 25) lor (e_ lsl 7)) in
    let ch = e_ land !f lxor (lnot e_ land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (a_ lsr 2) lor (a_ lsl 30) lxor ((a_ lsr 13) lor (a_ lsl 19)) lxor ((a_ lsr 22) lor (a_ lsl 10)) in
    let maj = a_ land !b lxor (a_ land !c) lxor (!b land !c) in
    let t2 = s0 + maj in
    hh := !g;
    g := !f;
    f := e_;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := a_;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let feed ctx s =
  if ctx.finalized then invalid_arg "Sha256.feed: finalized";
  let len = String.length s in
  ctx.total_len <- ctx.total_len + len;
  let pos = ref 0 in
  (* fill the partial block first *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = if len < need then len else need in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* whole blocks straight from the input *)
  let tmp = ctx.buf in
  while len - !pos >= 64 do
    Bytes.blit_string s !pos tmp 0 64;
    compress ctx tmp 0;
    pos := !pos + 64
  done;
  if ctx.buf_len = 0 && len - !pos > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let copy ctx =
  if ctx.finalized then invalid_arg "Sha256.copy: finalized";
  { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; w = Array.make 64 0 }

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: already finalized";
  ctx.finalized <- true;
  let bit_len = ctx.total_len * 8 in
  (* padding: 0x80, zeros, 64-bit big-endian length *)
  let pad_start = ctx.buf_len in
  Bytes.set ctx.buf pad_start '\x80';
  if pad_start + 1 > 56 then begin
    Bytes.fill ctx.buf (pad_start + 1) (64 - pad_start - 1) '\000';
    compress ctx ctx.buf 0;
    Bytes.fill ctx.buf 0 64 '\000'
  end
  else Bytes.fill ctx.buf (pad_start + 1) (56 - pad_start - 1) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i) (Char.chr ((bit_len lsr ((7 - i) * 8)) land 0xff))
  done;
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* A scratch-context reuse scheme (domain-local or global) is NOT safe
   here: the serving stack hashes from many systhreads that share one
   domain, and systhread preemption can land mid-digest. Each call
   keeps its own context. *)
let digest_list parts =
  let total = List.fold_left (fun acc s -> acc + String.length s) 0 parts in
  Aqv_util.Metrics.add_hash ~bytes_len:total;
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let digest s = digest_list [ s ]

let hex = Aqv_util.Hex.encode
