(** Verification objects.

    The server returns, next to the query result [R(q)], a verification
    object with two parts (paper §3.2): the {e function verification}
    part (boundary records plus an FMH range proof positioning the
    result window) and the {e subdomain verification} part (the IMH
    search path for the one-signature scheme, or the subdomain's
    inequality set for the multi-signature scheme), plus the data
    owner's signature. *)

type boundary =
  | Min_sentinel  (** the window starts at the head of the list *)
  | Max_sentinel  (** the window ends at the tail of the list *)
  | Boundary_record of Aqv_db.Record.t
      (** the record immediately outside the window *)

type path_step = {
  rp : Aqv_db.Record.t;
  rq : Aqv_db.Record.t;
      (** the intersecting pair at this IMH node; the client re-derives
          [f_p - f_q] through the public template *)
  taken : Aqv_num.Halfspace.side;  (** which child the search followed *)
  sibling : string;  (** hash of the child not taken *)
}

type subdomain_proof =
  | One_sig_path of path_step list
      (** leaf-to-root IMH path; verified against the signed IMH root *)
  | Multi_sig_constraints of (Aqv_db.Record.t * Aqv_db.Record.t * Aqv_num.Halfspace.side) list
      (** the inequality set carving the subdomain; verified against the
          per-subdomain signature *)

type t = {
  n_leaves : int;  (** FMH leaf count: records + 2 sentinels *)
  epoch : int;
      (** freshness epoch the owner signed; defends against replaying a
          stale database version (an extension beyond the paper — cf.
          the freshness literature it cites) *)
  window_lo : int;  (** FMH position of the first result leaf *)
  left : boundary;
  right : boundary;
  fmh_proof : string list;  (** {!Aqv_merkle.Mht.range_proof} digests *)
  subdomain : subdomain_proof;
  signature : string;
}

val encode : Aqv_util.Wire.writer -> t -> unit
val decode : Aqv_util.Wire.reader -> t
(** @raise Failure on malformed input. *)

val encode_boundary : Aqv_util.Wire.writer -> boundary -> unit
val decode_boundary : Aqv_util.Wire.reader -> boundary
val encode_subdomain : Aqv_util.Wire.writer -> subdomain_proof -> unit
val decode_subdomain : Aqv_util.Wire.reader -> subdomain_proof
(** The parts of {!encode} that {!Count} ships too, in the same bytes.
    @raise Failure on malformed input. *)

val size_bytes : t -> int
(** Size of the canonical encoding — the paper's communication-overhead
    metric (Fig. 8). Also ticks the bytes-out counter in
    {!Aqv_util.Metrics}. *)

val pp : Format.formatter -> t -> unit
