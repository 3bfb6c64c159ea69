(* Test-side helpers over [Aqv] (lib/core), written against the public
   interfaces only. *)

open Aqv

(* 1-D only: the open interval of leaf [id].
   @raise Invalid_argument in higher dimensions. *)
let leaf_interval tree id =
  match Aqv_num.Region.interval_bounds (Itree.leaves tree).(id).Itree.region with
  | Some bounds -> bounds
  | None -> invalid_arg "Core_ref.leaf_interval: not 1-D"
