module Q = Rational

type side = Above | Below
type t = { diff : Linfun.t; side : side }

let above diff = { diff; side = Above }
let below diff = { diff; side = Below }

let contains t x =
  let v = Linfun.eval t.diff x in
  match t.side with Above -> Q.sign v >= 0 | Below -> Q.sign v < 0

let contains_strictly t x =
  let v = Linfun.eval t.diff x in
  match t.side with Above -> Q.sign v > 0 | Below -> Q.sign v < 0

let side_to_int = function Above -> 0 | Below -> 1

let pp ppf t =
  Format.fprintf ppf "%a %s 0" Linfun.pp t.diff
    (match t.side with Above -> ">=" | Below -> "<")

let encode w t =
  Aqv_util.Wire.u8 w (side_to_int t.side);
  Linfun.encode w t.diff

let decode r =
  let side = if Aqv_util.Wire.read_u8 r = 0 then Above else Below in
  let diff = Linfun.decode r in
  { diff; side }
