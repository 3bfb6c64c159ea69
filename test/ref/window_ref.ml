(* The window search on reduced scores: [Query.window] and
   [Query.insertion_point] as they were before the serving path moved to
   unreduced values. Every score is a canonical [Rational.t], every
   comparison [Rational.compare], and a KNN step measures both distances,
   [|s_l - y|] and [|s_r - y|], and takes the left one on a tie. The
   oracle of the window law in test/test_core.ml. *)

module Q = Aqv_num.Rational
open Aqv

let insertion_point ~n ~score v =
  let rec go lo hi =
    (* invariant: score i < v for i < lo; score i >= v for i >= hi *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Q.compare (score mid) v < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

let window ~n ~score (t : Query.t) =
  if n = 0 then None
  else begin
    match t with
    | Query.Top_k { k; _ } ->
      let a = if k >= n then 0 else n - k in
      Some (a, n - 1)
    | Query.Range { l; u; _ } ->
      let a = insertion_point ~n ~score l in
      (* smallest index with score > u *)
      let rec above_u lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if Q.compare (score mid) u <= 0 then above_u (mid + 1) hi else above_u lo mid
        end
      in
      let b = above_u a n - 1 in
      if b < a then None else Some (a, b)
    | Query.Knn { k; y; _ } ->
      let k = if k > n then n else k in
      let p = insertion_point ~n ~score y in
      let left = ref (p - 1) and right = ref p in
      for _ = 1 to k do
        let take_left =
          if !left < 0 then false
          else if !right >= n then true
          else begin
            let dl = Q.abs (Q.sub (score !left) y) in
            let dr = Q.abs (Q.sub (score !right) y) in
            Q.compare dl dr <= 0
          end
        in
        if take_left then decr left else incr right
      done;
      Some (!left + 1, !right - 1)
  end
