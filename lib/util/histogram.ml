(* Power-of-two buckets: bucket i holds values in (2^(i-1), 2^i], bucket
   0 holds {0, 1}, and the last slot is the overflow bucket. 63 bounds
   cover the full non-negative int range on 64-bit, so overflow is
   unreachable in practice but kept for totality. *)

let n_bounds = 62

type t = {
  counts : int array; (* n_bounds + 1 slots; last is overflow *)
  mutable total : int;
  mutable sum : int;
  mutable max_value : int;
}

let create () =
  { counts = Array.make (n_bounds + 1) 0; total = 0; sum = 0; max_value = 0 }

let bound i = if i >= n_bounds then max_int else 1 lsl i

let bucket_of v =
  let rec go i = if i >= n_bounds || v <= 1 lsl i then i else go (i + 1) in
  go 0

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_value then t.max_value <- v

let count t = t.total
let sum t = t.sum
let max_value t = t.max_value

let last_occupied t =
  let rec go i = if i < 0 then -1 else if t.counts.(i) > 0 then i else go (i - 1) in
  go n_bounds

let percentile_permille t p =
  if p < 0 || p > 1000 then invalid_arg "Histogram.percentile_permille";
  if t.total = 0 then 0
  else begin
    (* exact integer rank: ceil(p * total / 1000), clamped to >= 1 *)
    let rank = ((p * t.total) + 999) / 1000 in
    let rank = if rank < 1 then 1 else rank in
    let last = last_occupied t in
    let rec go i acc =
      if i > last then t.max_value
      else
        let acc = acc + t.counts.(i) in
        if acc >= rank then if i = last then t.max_value else bound i
        else go (i + 1) acc
    in
    go 0 0
  end

let percentile t p =
  if p < 0 || p > 100 then invalid_arg "Histogram.percentile";
  percentile_permille t (p * 10)

let buckets t =
  let acc = ref [] in
  for i = n_bounds downto 0 do
    if t.counts.(i) > 0 then acc := (bound i, t.counts.(i)) :: !acc
  done;
  !acc

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
  t.total <- a.total + b.total;
  t.sum <- a.sum + b.sum;
  t.max_value <- max a.max_value b.max_value;
  t

let pp ppf t =
  Format.fprintf ppf "n=%d max=%d p50=%d p90=%d p99=%d p999=%d" t.total
    t.max_value (percentile t 50) (percentile t 90) (percentile t 99)
    (percentile_permille t 999)
