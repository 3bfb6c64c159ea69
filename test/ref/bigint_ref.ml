(* Reference oracles for [Bigint], built only from its public
   arithmetic. [mod_pow_plain] is plain left-to-right square-and-multiply
   with a full [erem] after every step: the qchecks in test_extensions
   and test_bigint check [Bigint.mod_pow] and [Bigint.mod_pow_mont]
   against it, and the abl-montgomery bench figure times it as the
   plain baseline. The byte conversions work one byte at a time
   (quadratic) and are what test_bigint checks the limb-packing
   [Bigint.of_bytes_be] / [to_bytes_be] against. *)

module Z = Aqv_bigint.Bigint

(* Bit [i] of the magnitude. *)
let testbit t i = not (Z.is_even (Z.shift_right (Z.abs t) i))

let mod_pow_plain ~base ~exp ~modulus =
  if Z.sign exp < 0 then invalid_arg "Bigint_ref.mod_pow_plain: negative exponent";
  if Z.sign modulus <= 0 then invalid_arg "Bigint_ref.mod_pow_plain: modulus <= 0";
  if Z.equal modulus Z.one then Z.of_int 0
  else begin
    let b = Z.erem base modulus in
    let acc = ref Z.one in
    for i = Z.bit_length exp - 1 downto 0 do
      acc := Z.erem (Z.mul !acc !acc) modulus;
      if testbit exp i then acc := Z.erem (Z.mul !acc b) modulus
    done;
    !acc
  end

let of_bytes_be s =
  let v = ref (Z.of_int 0) in
  String.iter (fun c -> v := Z.add (Z.shift_left !v 8) (Z.of_int (Char.code c))) s;
  !v

let to_bytes_be ?width t =
  if Z.sign t < 0 then invalid_arg "Bigint_ref.to_bytes_be: negative";
  let nbytes = max 1 ((Z.bit_length t + 7) / 8) in
  let out_len =
    match width with
    | None -> nbytes
    | Some w ->
      if nbytes > w && not (Z.is_zero t) then invalid_arg "Bigint_ref.to_bytes_be: width too small";
      w
  in
  let b = Bytes.make out_len '\000' in
  let rec fill t i =
    if i >= 0 && not (Z.is_zero t) then begin
      let q = Z.div t (Z.of_int 256) and r = Z.rem t (Z.of_int 256) in
      Bytes.set b i (Char.chr (Option.get (Z.to_int_opt r)));
      fill q (i - 1)
    end
  in
  fill t (out_len - 1);
  Bytes.unsafe_to_string b
