(* Linear-scan point location: the original O(S) reference that
   [Mesh.locate_cell]'s binary search must agree with everywhere,
   including exact facet points and the domain endpoints. Cells are
   half-open [lob, hib), the last cell right-closed, so a point exactly
   on a facet belongs to the cell on its right; a point right of the
   domain clamps to the last cell. Ticks the same counters as the
   binary search, one mesh-cell and one location sign test per scanned
   cell. Partially applied to a mesh, the bounds are read once. *)

module Q = Aqv_num.Rational
module Metrics = Aqv_util.Metrics
open Aqv_baseline

let locate_cell_scan mesh =
  let bounds = Mesh.cell_bounds mesh in
  let ncells = Array.length bounds in
  fun x0 ->
    let rec scan c =
      if c >= ncells then
        invalid_arg
          (Printf.sprintf "Mesh.locate_cell: point %s outside domain" (Q.to_string x0))
      else begin
        Metrics.add_mesh_cells 1;
        Metrics.add_locate_sign_tests 1;
        let lob, hib = bounds.(c) in
        if Q.compare lob x0 <= 0 && (Q.compare x0 hib < 0 || c = ncells - 1) then c
        else scan (c + 1)
      end
    in
    scan 0
