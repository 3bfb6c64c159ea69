(** Minimal JSON: a value type, a strict parser, a compact printer, and
    typed accessors.

    Just enough for the checked-in workload specs ([workloads/*.json])
    and the machine-readable reports the CLI and benches emit — no
    external dependency. The printer is canonical: objects keep their
    field order, floats print with up to 12 significant digits and
    always carry a ['.'] or exponent (so a printed [Float] re-parses as
    a [Float], never an [Int]), and strings are minimally escaped.
    [parse (to_string v)] therefore reconstructs [v] for every value
    this library produces, except that non-finite floats are rejected
    by {!to_string} (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict JSON parser. Numbers without a fraction or exponent that fit
    in an OCaml [int] parse as [Int]; everything else numeric parses as
    [Float]. Trailing garbage, trailing commas, comments, and unpaired
    surrogates are errors. The error string names the byte offset. *)

val parse_exn : string -> t
(** @raise Failure with the {!parse} error message. *)

val to_string : t -> string
(** Compact single-line rendering.
    @raise Invalid_argument on NaN or infinite [Float]s. *)

val to_int : t -> int option
(** [Int n] only. *)

val to_float : t -> float option
(** [Float x], or [Int n] widened — JSON has a single number type. *)

val to_str : t -> string option
val to_obj : t -> (string * t) list option
