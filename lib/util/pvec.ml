type 'a t =
  | Leaf of 'a
  | Node of { size : int; l : 'a t; r : 'a t }

let length = function Leaf _ -> 1 | Node n -> n.size

let of_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pvec.of_array: empty";
  let rec build lo n =
    if n = 1 then Leaf a.(lo)
    else begin
      let half = n / 2 in
      Node { size = n; l = build lo half; r = build (lo + half) (n - half) }
    end
  in
  build 0 n

let rec get t i =
  match t with
  | Leaf v -> if i = 0 then v else invalid_arg "Pvec.get: out of bounds"
  | Node { l; r; _ } ->
    let sl = length l in
    if i < 0 then invalid_arg "Pvec.get: out of bounds"
    else if i < sl then get l i
    else get r (i - sl)

let rec set t i v =
  match t with
  | Leaf _ -> if i = 0 then Leaf v else invalid_arg "Pvec.set: out of bounds"
  | Node ({ l; r; _ } as n) ->
    let sl = length l in
    if i < 0 then invalid_arg "Pvec.set: out of bounds"
    else if i < sl then Node { n with l = set l i v }
    else Node { n with r = set r (i - sl) v }

let to_array t = Array.init (length t) (get t)
