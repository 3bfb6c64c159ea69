module Q = Rational

type t = { coeffs : Q.t array; const : Q.t }

let make ~coeffs ~const = { coeffs = Array.copy coeffs; const }
let of_ints coeffs const =
  { coeffs = Array.map Q.of_int coeffs; const = Q.of_int const }

let dim t = Array.length t.coeffs
let coeff t i = t.coeffs.(i)
let const t = t.const
let coeffs t = Array.copy t.coeffs

let eval t x =
  if Array.length x <> Array.length t.coeffs then invalid_arg "Linfun.eval: dimension";
  let acc = ref t.const in
  for i = 0 to Array.length x - 1 do
    if Q.sign t.coeffs.(i) <> 0 then acc := Q.add !acc (Q.mul t.coeffs.(i) x.(i))
  done;
  !acc

let sub a b =
  if dim a <> dim b then invalid_arg "Linfun.sub: dimension";
  {
    coeffs = Array.init (dim a) (fun i -> Q.sub a.coeffs.(i) b.coeffs.(i));
    const = Q.sub a.const b.const;
  }

let is_zero t = Q.sign t.const = 0 && Array.for_all (fun c -> Q.sign c = 0) t.coeffs
let is_constant t = Array.for_all (fun c -> Q.sign c = 0) t.coeffs

let compare a b =
  let c = Stdlib.compare (dim a) (dim b) in
  if c <> 0 then c
  else begin
    let rec go i =
      if i = dim a then Q.compare a.const b.const
      else begin
        let c = Q.compare a.coeffs.(i) b.coeffs.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

let encode w t =
  let module W = Aqv_util.Wire in
  W.varint w (dim t);
  Array.iter (Q.encode w) t.coeffs;
  Q.encode w t.const

let digest t =
  let w = Aqv_util.Wire.writer () in
  encode w t;
  Aqv_crypto.Sha256.digest (Aqv_util.Wire.contents w)
