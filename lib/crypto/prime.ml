module Z = Aqv_bigint.Bigint
module Prng = Aqv_util.Prng

let small_primes =
  [
    2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97;
    101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151; 157; 163; 167; 173; 179; 181; 191; 193;
    197; 199; 211; 223; 227; 229; 233; 239; 241; 251;
  ]

(* Miller-Rabin witness test: true if [a] proves [n] composite, where
   [n - 1 = d * 2^s] with [d] odd and [pow a d = a^d mod n]. *)
let witness ~pow n n1 d s a =
  let x = pow a d in
  if Z.equal x Z.one || Z.equal x n1 then false
  else begin
    let rec squares x i =
      if i = 0 then true (* composite *)
      else begin
        let x = Z.erem (Z.mul x x) n in
        if Z.equal x n1 then false else squares x (i - 1)
      end
    in
    squares x (s - 1)
  end

(* Random Miller-Rabin bases per test: error probability <= 4^-24. *)
let rounds = 24

(* Candidates a generator draws before giving up, so that broken
   arithmetic underneath (a modexp that fails every prime) fails fast
   rather than spinning. A b-bit odd draw is prime with probability
   about p = 2 / (b ln 2), so A draws all miss with probability
   (1 - p)^A < e^(-pA). With A = 32b that is e^(-64 / ln 2) = 2^-133,
   below 2^-128 at every size: sound arithmetic never runs out. A
   draw of [gen_safe_candidate] may be even, which halves p, so it gets
   twice the draws. *)
let max_attempts ~bits = 32 * bits

(* Miller-Rabin with trial division by small primes first. *)
let is_prime rng n =
  let n = Z.abs n in
  if Z.compare n Z.two < 0 then false
  else begin
    let small = List.exists (fun p -> Z.equal n (Z.of_int p)) small_primes in
    if small then true
    else if List.exists (fun p -> Z.is_zero (Z.rem n (Z.of_int p))) small_primes then false
    else begin
      (* n is odd here: one Montgomery context serves every round *)
      let pow =
        match Z.mont n with
        | ctx -> fun a d -> Z.mod_pow_mont ctx ~base:a ~exp:d
        | exception Invalid_argument _ -> fun a d -> Z.mod_pow ~base:a ~exp:d ~modulus:n
      in
      let n1 = Z.pred n in
      let rec split d s = if Z.is_even d then split (Z.shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n1 0 in
      let n3 = Z.sub n (Z.of_int 3) in
      let rec rounds_left i =
        if i = 0 then true
        else begin
          (* a uniform in [2, n-2] *)
          let a = Z.add Z.two (Z.random_below rng (Z.succ n3)) in
          if witness ~pow n n1 d s a then false else rounds_left (i - 1)
        end
      in
      rounds_left rounds
    end
  end

let gen_prime rng ~bits =
  if bits < 2 then invalid_arg "Prime.gen_prime";
  let rec go attempts =
    if attempts = 0 then failwith "Prime.gen_prime: exhausted"
    else begin
      let candidate = Z.random_bits rng (bits - 1) in
      (* force top bit and oddness *)
      let candidate = Z.add (Z.shift_left Z.one (bits - 1)) candidate in
      let candidate = if Z.is_even candidate then Z.succ candidate else candidate in
      if Z.bit_length candidate = bits && is_prime rng candidate then candidate
      else go (attempts - 1)
    end
  in
  go (max_attempts ~bits)

let gen_safe_candidate rng ~bits ~residue ~modulus =
  if Z.sign modulus <= 0 || Z.compare residue modulus >= 0 || Z.sign residue < 0 then
    invalid_arg "Prime.gen_safe_candidate";
  let lo = Z.shift_left Z.one (bits - 1) in
  let hi = Z.shift_left Z.one bits in
  let rec go attempts =
    if attempts = 0 then invalid_arg "Prime.gen_safe_candidate: exhausted"
    else begin
      (* random multiple of modulus in range, shifted to the residue *)
      let x = Z.add lo (Z.random_below rng (Z.sub hi lo)) in
      let p = Z.add (Z.sub x (Z.erem x modulus)) residue in
      if Z.compare p lo >= 0 && Z.compare p hi < 0 && is_prime rng p then p
      else go (attempts - 1)
    end
  in
  go (2 * max_attempts ~bits)
