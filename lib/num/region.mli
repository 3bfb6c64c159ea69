(** Subdomains of the weight domain.

    A region is the intersection of the owner's domain box with a
    conjunction of half-spaces (one per I-tree ancestor). Regions answer
    the three questions the I-tree construction and search need:

    - does a new intersection hyperplane {e split} the region?
    - what is an {e interior point} (used to sort the ranking functions
      inside a leaf subdomain)?
    - does the region {e contain} a query input [X] (half-open
      semantics, matching tree routing)?

    Dimension 1 uses exact interval arithmetic; higher dimensions fall
    back to the exact simplex ({!Simplex}). *)

type t

val of_domain : Domain.t -> t
(** The whole domain box. *)

val constraints : t -> Halfspace.t list
(** Accumulated half-spaces, outermost first. *)

val add : t -> Halfspace.t -> t option
(** [add r h] is the sub-region [r ∩ h], or [None] if that intersection
    has an empty interior. *)

type split = Pos | Neg | Split
(** Position of a region relative to a hyperplane [diff = 0]: entirely
    on the positive side, entirely on the negative side (boundary
    contact allowed), or properly split by it. *)

val classify : t -> Linfun.t -> split
(** @raise Invalid_argument if [diff] is identically zero. *)

val interior_point : t -> Rational.t array
(** A point strictly inside every accumulated half-space (and inside
    the domain box). *)

val interval_bounds : t -> (Rational.t * Rational.t) option
(** In dimension 1, the open interval [(lo, hi)] the region occupies;
    [None] in higher dimensions. *)
