(** Global cost counters.

    The paper's simulation reports costs as operation counts (nodes or
    cells traversed, hash operations, signature operations) as well as
    wall-clock time. Library code increments these counters at the point
    where the corresponding work happens; benchmarks snapshot them around
    a measured region.

    Counters are [Atomic.t]-backed: the owner-side construction pipeline
    fans work out over {!Aqv_par.Pool} domains, and the ticks issued
    from worker domains must not be lost — a parallel build performs
    exactly the same operations as a sequential one, so its totals must
    match exactly. [snapshot] reads each counter atomically but not the
    set of counters as a whole; take snapshots at quiescent points
    (benchmarks already do). *)

type snapshot = {
  hash_ops : int;  (** one-way hash compressions requested *)
  hash_bytes : int;  (** bytes fed to the hash function *)
  sign_ops : int;  (** private-key signature creations *)
  verify_ops : int;  (** public-key signature verifications *)
  itree_nodes : int;  (** IMH-tree nodes visited *)
  fmh_nodes : int;  (** FMH-tree nodes visited *)
  mesh_cells : int;  (** signature-mesh cells scanned *)
  bytes_out : int;  (** serialized bytes produced (VO / index) *)
  memo_pair_hits : int;
      (** Always 0, as are the three [memo_*] fields below: the rebuild
          cache they counted is retired, and they remain only while the
          benchmark harness still reads them. *)
  memo_pair_misses : int;
  memo_fmh_hits : int;
  memo_fmh_misses : int;
  locate_sign_tests : int;
      (** exact-rational sign tests spent locating the subdomain of a
          query point: one per I-tree descent step, one per mesh
          boundary comparison (binary search and linear scan alike) —
          the counter behind the O(S) vs O(log S) point-location
          figures and the CI sub-linearity guard *)
  frag_hits : int;
      (** VO fragments served from the content-addressed fragment
          cache (see [Aqv.Fragment]) instead of being reassembled *)
  frag_misses : int;  (** VO fragments assembled from the index *)
  build_pairs_classified : int;
      (** function pairs the crossing enumerator (see [Aqv.Crossings])
          gave a geometry record, per structure build: in 1-D the K
          crossings the inversion sweep finds — it never looks at a
          non-crossing pair; in d >= 2 exactly n(n-1)/2, each probed
          once regardless of chunking or pool size *)
  build_pair_chunks : int;
      (** bounded chunks the d >= 2 probe processed,
          ceil(n(n-1)/2 / chunk) — the pair index space is never
          materialized wholesale; 0 in 1-D, where the sweep needs no
          chunks *)
  build_peak_pairs : int;
      (** high-water mark of pair records live at once in the
          enumerator: at most (retained crossings) + (one chunk),
          exactly the crossings in 1-D — the
          O(#crossings + chunk) memory bound, as a deterministic
          counter. A mark, not a flow: [diff] reports the later
          snapshot's value *)
  build_crossings : int;
      (** pairs retained because their hyperplane properly crosses the
          domain box — the only pairs the I-tree insertion and the 1-D
          sweep ever see *)
}

val reset : unit -> unit
(** Zero every counter. *)

val snapshot : unit -> snapshot
(** Current counter values. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val pp : Format.formatter -> snapshot -> unit

(** Incrementors, called by library code. *)

val add_hash : bytes_len:int -> unit
val add_sign : unit -> unit
val add_verify : unit -> unit
val add_itree_nodes : int -> unit
val add_fmh_nodes : int -> unit
val add_mesh_cells : int -> unit
val add_bytes_out : int -> unit
val add_locate_sign_tests : int -> unit
val add_frag_hit : unit -> unit
val add_frag_miss : unit -> unit
val add_build_pairs_classified : int -> unit
val add_build_pair_chunks : int -> unit
val add_build_crossings : int -> unit

val note_build_peak_pairs : int -> unit
(** Raise the [build_peak_pairs] high-water mark to [v] if above it. *)

val total_node_visits : snapshot -> int
(** [itree_nodes + fmh_nodes + mesh_cells]: the paper's "server cost". *)
