(** Record-level changes to an outsourced table.

    The owner edits the database through a list of {!change}s; the same
    list is shipped to the storage server inside an {!Ifmh.delta}, so
    both sides must derive the {e same} updated table. [apply_table]
    fixes that canonical semantics:

    - [Modify r] replaces the record with [r]'s id in place (same
      position in the record array);
    - [Delete id] removes the record, shifting later positions left;
    - [Insert r] appends [r] at the end;
    - changes apply sequentially in list order.

    Because {!Aqv_db.Table.make} re-validates the result, a malformed
    sequence (duplicate id on insert, unknown id on delete/modify,
    emptying the table) fails loudly instead of producing an index that
    silently disagrees with the owner's. *)

type change =
  | Insert of Aqv_db.Record.t
  | Delete of int  (** record id *)
  | Modify of Aqv_db.Record.t  (** replaces the record with the same id *)

val apply_table : change list -> Aqv_db.Table.t -> Aqv_db.Table.t
(** @raise Invalid_argument on inserting an existing id, deleting or
    modifying a missing id, emptying the table, or a record that does
    not fit the table's template. *)

val compose : ?exists:(int -> bool) -> change list -> change list -> change list
(** [compose a b] is a single change list equivalent to applying [a]
    then [b]: for every table on which the sequential application
    succeeds, [apply_table (compose a b) t = apply_table b (apply_table
    a t)] — positionally, not just as a set. The result is in normal
    form: Modifies of base records (first-touch order), then Deletes of
    base ids, then Inserts in order of last insertion. A base id that
    was deleted and re-inserted stays Delete-then-Insert (the record
    moved to the appended end — collapsing to Modify would leave it at
    its base position); an id inserted and deleted within the sequence
    vanishes.

    [exists] reports whether an id is present in the base table; with
    it, every change is validated exactly as sequential application
    would (same [Invalid_argument] messages, at the first offending
    change). Without it, the first touch of each id is trusted. The one
    check compose cannot anticipate is transient emptiness: a sequence
    whose {e intermediate} tables are empty composes fine as long as the
    final table is not — callers replaying a frame log coalesce frames
    whose intermediate versions are never served, so only the final
    emptiness check (in {!apply_table}) matters.
    @raise Invalid_argument on a sequence invalid w.r.t. [exists]. *)

val encode_change : Aqv_util.Wire.writer -> change -> unit
val decode_change : Aqv_util.Wire.reader -> change
(** @raise Failure on malformed input. *)
