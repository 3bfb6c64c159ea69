(* Test-side helpers over [Aqv_util]: readers and generators the suites
   need but nothing in the library calls, written against the public
   interfaces only. *)

open Aqv_util

(* [hex_decode h] parses a hex string (case-insensitive), the inverse of
   [Hex.encode]. @raise Invalid_argument on odd length or a non-hex
   character. *)
let hex_decode h =
  let nibble = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hex.decode"
  in
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode";
  String.init (n / 2) (fun i -> Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))

(* [n] uniformly random bytes, one [Prng.bits t 8] draw each. *)
let prng_bytes t n = String.init n (fun _ -> Char.chr (Prng.bits t 8))

(* Whether every byte of the reader has been consumed. Reads one byte
   when not, so call it last. *)
let wire_at_end r = match Wire.read_u8 r with _ -> false | exception Failure _ -> true

let pvec_to_list v = Array.to_list (Pvec.to_array v)

(* Field lookup; [None] when absent or when the value is not an object. *)
let json_member key = function Json.Obj fields -> List.assoc_opt key fields | _ -> None
let json_to_list = function Json.List vs -> Some vs | _ -> None

(* The byte-level fuzzers' mutation rule: [attempts] mutants of
   [original], 1-3 bit flips and/or a truncation each, drawn from
   [seed], skipping any that came out byte-identical. *)
let iter_mutants ~seed ~attempts original f =
  let rng = Prng.create seed in
  for _ = 1 to attempts do
    let b = Bytes.of_string original in
    let mutate () =
      let i = Prng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))
    in
    (* 1-3 byte flips, or a truncation *)
    (match Prng.int rng 4 with
    | 0 -> mutate ()
    | 1 ->
      mutate ();
      mutate ()
    | 2 ->
      mutate ();
      mutate ();
      mutate ()
    | _ -> ());
    let mutated =
      if Prng.int rng 4 = 3 && Bytes.length b > 1 then
        Bytes.sub_string b 0 (1 + Prng.int rng (Bytes.length b - 1))
      else Bytes.to_string b
    in
    if not (String.equal mutated original) then f mutated
  done
