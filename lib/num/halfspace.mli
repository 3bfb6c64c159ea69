(** Half-spaces induced by function intersections.

    The intersection of two ranking functions [f_i] and [f_j] is the
    hyperplane [{X | (f_i - f_j)(X) = 0}]. It splits the domain into the
    side where [f_i] dominates ([Above], [diff >= 0]) and where it does
    not ([Below], [diff < 0]). Following the paper, points on the
    hyperplane itself belong to the [Above] side, making the
    decomposition a partition. *)

type side = Above | Below

type t = { diff : Linfun.t; side : side }

val above : Linfun.t -> t
val below : Linfun.t -> t

val side_to_int : side -> int
(** 0 for Above, 1 for Below; used in canonical encodings. *)
