type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* splitmix64 step: add the golden gamma, then mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t k =
  if k < 0 || k > 62 then invalid_arg "Prng.bits";
  if k = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - k))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling on 62-bit draws to avoid modulo bias. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then go () else v
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
