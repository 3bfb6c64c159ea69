(* Reference modular exponentiation: plain left-to-right
   square-and-multiply with a full [erem] after every step, built only
   from public [Bigint] operations. The qcheck in test_extensions
   checks [Bigint.mod_pow] (Montgomery for odd moduli) against it, and
   the abl-montgomery bench figure times it as the plain baseline. *)

module Z = Aqv_bigint.Bigint

let mod_pow_plain ~base ~exp ~modulus =
  if Z.sign exp < 0 then invalid_arg "Bigint_ref.mod_pow_plain: negative exponent";
  if Z.sign modulus <= 0 then invalid_arg "Bigint_ref.mod_pow_plain: modulus <= 0";
  if Z.equal modulus Z.one then Z.zero
  else begin
    let b = Z.erem base modulus in
    let acc = ref Z.one in
    for i = Z.bit_length exp - 1 downto 0 do
      acc := Z.erem (Z.mul !acc !acc) modulus;
      if Z.testbit exp i then acc := Z.erem (Z.mul !acc b) modulus
    done;
    !acc
  end
