module Q = Aqv_num.Rational

type t =
  | Top_k of { x : Q.t array; k : int }
  | Range of { x : Q.t array; l : Q.t; u : Q.t }
  | Knn of { x : Q.t array; k : int; y : Q.t }

let top_k ~x ~k =
  if k < 1 then invalid_arg "Query.top_k: k < 1";
  Top_k { x = Array.copy x; k }

let range ~x ~l ~u =
  if Q.compare l u > 0 then invalid_arg "Query.range: l > u";
  Range { x = Array.copy x; l; u }

let knn ~x ~k ~y =
  if k < 1 then invalid_arg "Query.knn: k < 1";
  Knn { x = Array.copy x; k; y }

let x = function Top_k { x; _ } | Range { x; _ } | Knn { x; _ } -> x

let pp ppf t =
  let pp_x ppf x =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      Q.pp ppf (Array.to_list x)
  in
  match t with
  | Top_k { x; k } -> Format.fprintf ppf "top-%d@(%a)" k pp_x x
  | Range { x; l; u } -> Format.fprintf ppf "range[%a,%a]@(%a)" Q.pp l Q.pp u pp_x x
  | Knn { x; k; y } -> Format.fprintf ppf "%d-nn(%a)@(%a)" k Q.pp y pp_x x

let encode w t =
  let module W = Aqv_util.Wire in
  let enc_x x =
    W.varint w (Array.length x);
    Array.iter (Q.encode w) x
  in
  match t with
  | Top_k { x; k } ->
    W.u8 w 0;
    enc_x x;
    W.varint w k
  | Range { x; l; u } ->
    W.u8 w 1;
    enc_x x;
    Q.encode w l;
    Q.encode w u
  | Knn { x; k; y } ->
    W.u8 w 2;
    enc_x x;
    W.varint w k;
    Q.encode w y

let decode r =
  let module W = Aqv_util.Wire in
  let tag = W.read_u8 r in
  let x = W.read_array r Q.decode in
  match tag with
  | 0 ->
    let k = W.read_varint r in
    if k < 1 then failwith "Query.decode: k < 1";
    Top_k { x; k }
  | 1 ->
    let l = Q.decode r in
    let u = Q.decode r in
    if Q.compare l u > 0 then failwith "Query.decode: l > u";
    Range { x; l; u }
  | 2 ->
    let k = W.read_varint r in
    if k < 1 then failwith "Query.decode: k < 1";
    let y = Q.decode r in
    Knn { x; k; y }
  | _ -> failwith "Query.decode: bad tag"

let insertion_point ~n ~score v =
  let rec go lo hi =
    (* invariant: score i < v for i < lo; score i >= v for i >= hi *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Q.compare_unreduced (score mid) v < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

let window ~n ~score t =
  if n = 0 then None
  else begin
    match t with
    | Top_k { k; _ } ->
      let a = if k >= n then 0 else n - k in
      Some (a, n - 1)
    | Range { l; u; _ } ->
      let a = insertion_point ~n ~score (Q.to_unreduced l) in
      let u = Q.to_unreduced u in
      (* smallest index with score > u *)
      let rec above_u lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if Q.compare_unreduced (score mid) u <= 0 then above_u (mid + 1) hi else above_u lo mid
        end
      in
      let b = above_u a n - 1 in
      if b < a then None else Some (a, b)
    | Knn { k; y; _ } ->
      let k = if k > n then n else k in
      let y = Q.to_unreduced y in
      let p = insertion_point ~n ~score y in
      (* every left candidate scores below y and every right one at or
         above it, so |s_l - y| <= |s_r - y| exactly when
         2y <= s_l + s_r: one sum and one compare, no gcd *)
      let two_y = Q.add_unreduced y y in
      let left = ref (p - 1) and right = ref p in
      for _ = 1 to k do
        let take_left =
          if !left < 0 then false
          else if !right >= n then true
          else Q.compare_unreduced two_y (Q.add_unreduced (score !left) (score !right)) <= 0
        in
        if take_left then decr left else incr right
      done;
      Some (!left + 1, !right - 1)
  end
