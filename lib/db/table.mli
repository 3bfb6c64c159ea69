(** An outsourced table: records + the published utility-function
    template + the owner-declared query domain. This is the object both
    the owner (index construction) and the server (query processing)
    operate on. *)

type t

val make : records:Record.t list -> template:Template.t -> domain:Aqv_num.Domain.t -> t
(** @raise Invalid_argument if ids are not distinct, a record is too
    short for the template, or the template/domain dimensions differ. *)

val records : t -> Record.t array
(** In id-index order as supplied; do not mutate. *)

val record : t -> int -> Record.t
(** By position (not id). *)

val size : t -> int
val template : t -> Template.t
val domain : t -> Aqv_num.Domain.t
val dim : t -> int

val functions : t -> Aqv_num.Linfun.t array
(** [functions t].(i) is the template applied to [record t i]; computed
    once and cached. Do not mutate. *)

val position_by_id : t -> int -> int option
(** Position (array index) of the record with the given id. *)

val pp : Format.formatter -> t -> unit
