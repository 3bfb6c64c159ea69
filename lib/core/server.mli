(** Server-side query processing over an IFMH index.

    Given a query, the server locates the subdomain containing the
    function input (an O(log) IMH descent), binary-searches the
    subdomain's sorted list for the answer window, and assembles the
    verification object along the way (paper §3.2). All node traversals
    tick {!Aqv_util.Metrics} — the paper's server-cost metric. *)

type response = {
  result : Aqv_db.Record.t list;  (** R(q), in ascending score order *)
  vo : Vo.t;
}

val answer : Ifmh.t -> Query.t -> response
(** [answer_at index (locate index (Query.x query)) query].
    @raise Invalid_argument if the query input is outside the owner's
    domain or has the wrong dimension. *)

type located = {
  path : Itree.node list;  (** the I-tree descent, root first *)
  leaf : Itree.leaf;  (** the subdomain containing the input *)
  fmh : int Aqv_merkle.Mht.t;  (** its FMH-tree, which holds the sorted list ({!Sorting.leaf}) *)
  score : int -> Aqv_num.Rational.unreduced;
      (** score at sorted position [i] (FMH leaf [i + 1]), unreduced, for
          {!Query.window}; ticks one FMH node *)
}

val locate : Ifmh.t -> Aqv_num.Rational.t array -> located
(** Where an input lands: one I-tree descent. @raise Invalid_argument as {!answer}. *)

val answer_at : Ifmh.t -> located -> Query.t -> response
(** A caller that needs the leaf too ({!Count}) locates once. *)

val rank : Ifmh.t -> x:Aqv_num.Rational.t array -> record_id:int -> response option
(** Authenticated rank query (an extension beyond the paper's three
    query types, using the same index): the response's single-record
    window proves the record's 0-based ascending rank under input [x] —
    the rank is [vo.window_lo - 1], as certified by the positional
    binding of the FMH range proof. [None] if no record has that id.
    Verify with {!Client.verify_rank}. *)

val response_result_size : response -> int
(** Serialized size of R(q) alone (communication accounting). *)

val encode_response : Aqv_util.Wire.writer -> response -> unit
(** Full wire form of a response (result + VO), so responses can cross
    a real network boundary. *)

val decode_response : Aqv_util.Wire.reader -> response
(** @raise Failure on malformed input. *)
