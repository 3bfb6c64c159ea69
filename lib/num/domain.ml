module Q = Rational

type t = { lo : Q.t array; hi : Q.t array }

(* [make] and [decode] refuse the same shapes, each with its own
   exception class: a caller's mistake vs. malformed wire bytes *)
let validated ~fail lo hi =
  if Array.length lo = 0 then fail "empty";
  Array.iteri (fun i l -> if Q.compare l hi.(i) >= 0 then fail "lo >= hi") lo;
  { lo; hi }

let make bounds =
  validated
    ~fail:(fun m -> invalid_arg ("Domain.make: " ^ m))
    (Array.of_list (List.map fst bounds))
    (Array.of_list (List.map snd bounds))

let unit_box d = make (List.init d (fun _ -> (Q.zero, Q.one)))
let of_ints bounds = make (List.map (fun (l, h) -> (Q.of_int l, Q.of_int h)) bounds)

let dim t = Array.length t.lo
let lo t i = t.lo.(i)
let hi t i = t.hi.(i)

let contains t x =
  Array.length x = dim t
  && begin
    let ok = ref true in
    for i = 0 to dim t - 1 do
      if Q.compare x.(i) t.lo.(i) < 0 || Q.compare x.(i) t.hi.(i) > 0 then ok := false
    done;
    !ok
  end

let center t = Array.init (dim t) (fun i -> Q.average t.lo.(i) t.hi.(i))

let pp ppf t =
  Format.pp_print_string ppf "[";
  for i = 0 to dim t - 1 do
    if i > 0 then Format.pp_print_string ppf " x ";
    Format.fprintf ppf "[%a,%a]" Q.pp t.lo.(i) Q.pp t.hi.(i)
  done;
  Format.pp_print_string ppf "]"

let encode w t =
  Aqv_util.Wire.varint w (dim t);
  Array.iter (Q.encode w) t.lo;
  Array.iter (Q.encode w) t.hi

let decode r =
  let lo = Aqv_util.Wire.read_array r Q.decode in
  let hi = Array.init (Array.length lo) (fun _ -> Q.decode r) in
  validated ~fail:(fun m -> failwith ("Domain.decode: " ^ m)) lo hi

let equal a b =
  dim a = dim b
  && Array.for_all2 Q.equal a.lo b.lo
  && Array.for_all2 Q.equal a.hi b.hi
