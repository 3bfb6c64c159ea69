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
  hash_ops : int;
      (** digests produced: one tick per [H(.)] result, whatever the
          message length — not SHA-256 block compressions. A leaf
          signing digest that shares its prefix's hash state with its
          siblings (see [Aqv.Ifmh]) still ticks once. This is the
          count the Fig. 7b hash-operation benches report. *)
  hash_bytes : int;
      (** message bytes the ticked digests cover: each digest adds its
          full message length, including a prefix hashed once for
          several digests *)
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
  build_crossings : int;
      (** pairs the crossing enumerator (see [Aqv.Crossings]) found
          whose hyperplane properly crosses the domain box, per
          structure build, in any dimension and with or without a pool
          — the only pairs that ever get a pair record, and the only
          ones the I-tree insertion and the 1-D sweep see *)
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
val add_build_crossings : int -> unit

val total_node_visits : snapshot -> int
(** [itree_nodes + fmh_nodes + mesh_cells]: the paper's "server cost". *)
