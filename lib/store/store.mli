(** The durable index store: snapshot + write-ahead delta log.

    A store directory holds exactly two files: [index.bin] (a
    {!Snapshot} image, atomically published) and [wal.log] (a {!Wal} of
    every accepted republish since that snapshot). The contract with
    the serving engine:

    - {!append} returns only after the delta frame is fsync'd — the
      engine acks [Republished] strictly after that, so an acked epoch
      is always recoverable (durable-before-ack);
    - {!open_dir} recovery replays the log with [Ifmh.apply_delta],
      which rebuilds the structure exactly as the hot-swap path did, so
      the recovered index is byte-identical to what a never-crashed
      server would serve (the apply == rebuild invariant). The
      surviving frames are {e coalesced} first — folded into one net
      change list with [Update.compose] — so a k-frame log costs one
      rebuild, not k, with the identical final index. Invalid logs are
      rejected at the same frame with the same typed error a
      frame-by-frame replay gives, except for checks only an
      intermediate version could trip (signature counts, transient
      emptiness): those are deferred to the final [Ifmh.apply_delta]
      and attributed to the last accepted frame — intermediate
      versions are never served;
    - a torn log tail (crash mid-append) is truncated; every other
      corruption mode is a typed {!Error.t} and nothing is served.

    Compaction rewrites the snapshot at the current epoch, then resets
    the log. A crash between those two steps is benign: recovery skips
    log frames whose base epoch predates the snapshot.

    Every file operation goes through one {!Io.t}: [?io] defaults to
    {!Io.unix}; tests pass fault-injecting or in-memory ones. *)

type t

type policy = {
  max_log_frames : int;  (** compact when the log holds this many deltas *)
  max_log_bytes : int;  (** ... or grows past this many bytes *)
}

val default_policy : policy
(** 256 frames / 64 MiB. Coalesced replay folds the whole log into a
    single rebuild, so recovery cost is nearly flat in log length and
    the log can run an order of magnitude longer than under the old
    frame-by-frame replay (64 frames / 16 MiB) before compaction pays
    for itself — see bench [abl-recovery]. *)

type recovery = {
  scheme : Aqv.Ifmh.scheme;
  n_leaves : int;  (** records + 2 sentinels *)
  snapshot_bytes : int;  (** size of [index.bin] *)
  snapshot_epoch : int;
  log_frames : int;  (** complete frames in the log, stale ones included *)
  final_epoch : int;  (** epoch after replay — what the engine serves *)
  replayed : int;  (** frames folded into the single recovery rebuild *)
  skipped : int;  (** stale frames below the snapshot epoch (torn compaction) *)
  torn_tail_bytes : int;  (** garbage past the last complete frame *)
}

val snapshot_path : string -> string

val publish : ?policy:policy -> ?io:Io.t -> dir:string -> Aqv.Ifmh.t -> t
(** Owner-side initial publish: write the snapshot atomically and start
    a fresh log. Creates [dir] if missing; truncates any previous log.
    @raise Error.Error on IO failure. *)

val open_dir :
  ?policy:policy -> ?io:Io.t -> string -> (t * Aqv.Ifmh.t * recovery, Error.t) result
(** Recover: validate the snapshot, scan the log, replay surviving
    deltas (coalesced: one rebuild for the whole log) — the read half,
    {!fsck} — then make the only repairs: truncate a torn tail, or
    recreate a log that is missing or whose magic is torn. Nothing is
    written unless the read half succeeds. Never raises on bad input. *)

val append : t -> base:Aqv.Ifmh.t -> Aqv.Ifmh.delta -> unit
(** Log one accepted delta ([base] is the index it applies to; its
    epoch becomes the frame's base epoch). Fsync'd before returning.
    @raise Error.Error ([Io_error]) on failure — in which case the
    caller must NOT ack. A failed append rolls the log back to its last
    durable frame (see {!Wal.append}), so a retry is safe; if the
    rollback failed, every later append is refused until the store is
    reopened through {!open_dir} recovery. *)

val compact : t -> Aqv.Ifmh.t -> unit
(** Rewrite the snapshot at [index]'s epoch (atomic, directory fsync
    included), then reset the log in place. If the snapshot write fails
    at any step, the log is not touched and the store stays appendable.
    @raise Error.Error on IO failure. *)

val compaction_due : t -> bool
(** Whether the policy says the log should be folded into a snapshot.
    Cheap — safe to poll on the reply path. *)

val maybe_compact : t -> Aqv.Ifmh.t -> bool
(** {!compact} iff {!compaction_due}. Returns whether it compacted. *)

val log_frames : t -> int

val close : t -> unit

val fsck : ?io:Io.t -> string -> (recovery, Error.t) result
(** The read half of {!open_dir}: the same checks, the same replay and
    the same [recovery] (or the same error), but nothing is truncated,
    recreated or opened for writing. *)
