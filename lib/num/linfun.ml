module Q = Rational

type t = { coeffs : Q.t array; const : Q.t }

let make ~coeffs ~const = { coeffs = Array.copy coeffs; const }
let of_ints coeffs const =
  { coeffs = Array.map Q.of_int coeffs; const = Q.of_int const }

let dim t = Array.length t.coeffs
let coeff t i = t.coeffs.(i)
let const t = t.const

let eval t x =
  if Array.length x <> Array.length t.coeffs then invalid_arg "Linfun.eval: dimension";
  Q.affine t.const t.coeffs x

let eval_unreduced t x =
  if Array.length x <> Array.length t.coeffs then invalid_arg "Linfun.eval: dimension";
  Q.affine_unreduced t.const t.coeffs x

let sub a b =
  if dim a <> dim b then invalid_arg "Linfun.sub: dimension";
  {
    coeffs = Array.init (dim a) (fun i -> Q.sub a.coeffs.(i) b.coeffs.(i));
    const = Q.sub a.const b.const;
  }

let is_zero t = Q.sign t.const = 0 && Array.for_all (fun c -> Q.sign c = 0) t.coeffs
let is_constant t = Array.for_all (fun c -> Q.sign c = 0) t.coeffs
