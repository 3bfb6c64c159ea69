type side = Above | Below
type t = { diff : Linfun.t; side : side }

let above diff = { diff; side = Above }
let below diff = { diff; side = Below }

let side_to_int = function Above -> 0 | Below -> 1
