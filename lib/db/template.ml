module Q = Aqv_num.Rational
module W = Aqv_util.Wire

type t =
  | Linear_weights of int  (* dims *)
  | Affine_1d

let linear_weights ~dims =
  if dims < 1 then invalid_arg "Template.linear_weights";
  Linear_weights dims

let affine_1d = Affine_1d

let dim = function
  | Linear_weights d -> d
  | Affine_1d -> 1

let apply t r =
  let need n = if Record.arity r < n then invalid_arg "Template.apply: record arity" in
  match t with
  | Linear_weights d ->
    need d;
    Aqv_num.Linfun.make ~coeffs:(Array.init d (Record.attr r)) ~const:Q.zero
  | Affine_1d ->
    need 2;
    Aqv_num.Linfun.make ~coeffs:[| Record.attr r 0 |] ~const:(Record.attr r 1)

let score_unreduced t r x =
  if Array.length x <> dim t then invalid_arg "Template.score: dimension";
  match t with
  | Linear_weights d ->
    if Record.arity r < d then invalid_arg "Template.score: record arity";
    Record.affine r ~const:Q.zero x
  | Affine_1d ->
    if Record.arity r < 2 then invalid_arg "Template.score: record arity";
    Record.affine r ~const:(Record.attr r 1) x

let score t r x = Q.of_unreduced (score_unreduced t r x)

let name = function
  | Linear_weights d -> Printf.sprintf "linear-weights(%d)" d
  | Affine_1d -> "affine-1d"

let pp ppf t = Format.pp_print_string ppf (name t)

let encode w = function
  | Linear_weights d ->
    W.u8 w 0;
    W.varint w d
  | Affine_1d -> W.u8 w 1

let decode r =
  match W.read_u8 r with
  | 0 ->
    let d = W.read_varint r in
    if d < 1 then failwith "Template.decode: no dimensions";
    Linear_weights d
  | 1 -> Affine_1d
  | _ -> failwith "Template.decode: bad tag"
