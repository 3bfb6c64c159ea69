(* Reference primality oracle: Miller-Rabin with 24 random bases, every
   modular power computed by [Bigint_ref.mod_pow_plain] (square and
   multiply with a full [erem] per step). It shares no code with the
   Montgomery kernel that [Prime]'s own test runs on, so test_crypto
   can check generated primes with it. *)

module Z = Aqv_bigint.Bigint

let is_prime rng n =
  let n = Z.abs n in
  if Z.compare n Z.two < 0 then false
  else if Z.compare n (Z.of_int 4) < 0 then true
  else if Z.is_even n then false
  else begin
    let n1 = Z.pred n in
    let rec split d s = if Z.is_even d then split (Z.shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    (* [a] witnesses compositeness unless a^d = 1 or one of
       a^d, a^2d, ..., a^(2^(s-1) d) is n - 1 *)
    let witness a =
      let rec squares x i = i > 0 && (Z.equal x n1 || squares (Z.erem (Z.mul x x) n) (i - 1)) in
      let x = Bigint_ref.mod_pow_plain ~base:a ~exp:d ~modulus:n in
      not (Z.equal x Z.one || squares x s)
    in
    let rec rounds i =
      i = 0
      || (not (witness (Z.add Z.two (Z.random_below rng (Z.sub n (Z.of_int 3))))))
         && rounds (i - 1)
    in
    rounds 24
  end
