type snapshot = {
  hash_ops : int;
  hash_bytes : int;
  sign_ops : int;
  verify_ops : int;
  itree_nodes : int;
  fmh_nodes : int;
  mesh_cells : int;
  bytes_out : int;
  memo_pair_hits : int;
  memo_pair_misses : int;
  memo_fmh_hits : int;
  memo_fmh_misses : int;
  locate_sign_tests : int;
  frag_hits : int;
  frag_misses : int;
  build_crossings : int;
}

(* Atomic, not plain refs: library code ticks these from whatever domain
   happens to run it (the construction pipeline fans out over
   Aqv_par.Pool workers), and lost increments would make parallel builds
   report different op counts than sequential ones. *)
let hash_ops = Atomic.make 0
let hash_bytes = Atomic.make 0
let sign_ops = Atomic.make 0
let verify_ops = Atomic.make 0
let itree_nodes = Atomic.make 0
let fmh_nodes = Atomic.make 0
let mesh_cells = Atomic.make 0
let bytes_out = Atomic.make 0
let locate_sign_tests = Atomic.make 0
let frag_hits = Atomic.make 0
let frag_misses = Atomic.make 0
let build_crossings = Atomic.make 0

let reset () =
  Atomic.set hash_ops 0;
  Atomic.set hash_bytes 0;
  Atomic.set sign_ops 0;
  Atomic.set verify_ops 0;
  Atomic.set itree_nodes 0;
  Atomic.set fmh_nodes 0;
  Atomic.set mesh_cells 0;
  Atomic.set bytes_out 0;
  Atomic.set locate_sign_tests 0;
  Atomic.set frag_hits 0;
  Atomic.set frag_misses 0;
  Atomic.set build_crossings 0

let snapshot () =
  {
    hash_ops = Atomic.get hash_ops;
    hash_bytes = Atomic.get hash_bytes;
    sign_ops = Atomic.get sign_ops;
    verify_ops = Atomic.get verify_ops;
    itree_nodes = Atomic.get itree_nodes;
    fmh_nodes = Atomic.get fmh_nodes;
    mesh_cells = Atomic.get mesh_cells;
    bytes_out = Atomic.get bytes_out;
    memo_pair_hits = 0;
    memo_pair_misses = 0;
    memo_fmh_hits = 0;
    memo_fmh_misses = 0;
    locate_sign_tests = Atomic.get locate_sign_tests;
    frag_hits = Atomic.get frag_hits;
    frag_misses = Atomic.get frag_misses;
    build_crossings = Atomic.get build_crossings;
  }

let diff a b =
  {
    hash_ops = a.hash_ops - b.hash_ops;
    hash_bytes = a.hash_bytes - b.hash_bytes;
    sign_ops = a.sign_ops - b.sign_ops;
    verify_ops = a.verify_ops - b.verify_ops;
    itree_nodes = a.itree_nodes - b.itree_nodes;
    fmh_nodes = a.fmh_nodes - b.fmh_nodes;
    mesh_cells = a.mesh_cells - b.mesh_cells;
    bytes_out = a.bytes_out - b.bytes_out;
    memo_pair_hits = 0;
    memo_pair_misses = 0;
    memo_fmh_hits = 0;
    memo_fmh_misses = 0;
    locate_sign_tests = a.locate_sign_tests - b.locate_sign_tests;
    frag_hits = a.frag_hits - b.frag_hits;
    frag_misses = a.frag_misses - b.frag_misses;
    build_crossings = a.build_crossings - b.build_crossings;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>hash_ops=%d hash_bytes=%d@ sign_ops=%d verify_ops=%d@ \
     itree_nodes=%d fmh_nodes=%d mesh_cells=%d locate_tests=%d@ \
     bytes_out=%d@ frags=%d/%d@ crossings=%d@]"
    s.hash_ops s.hash_bytes s.sign_ops s.verify_ops s.itree_nodes
    s.fmh_nodes s.mesh_cells s.locate_sign_tests s.bytes_out s.frag_hits
    (s.frag_hits + s.frag_misses) s.build_crossings

let add n v = ignore (Atomic.fetch_and_add n v : int)

let add_hash ~bytes_len =
  Atomic.incr hash_ops;
  add hash_bytes bytes_len

let add_sign () = Atomic.incr sign_ops
let add_verify () = Atomic.incr verify_ops
let add_itree_nodes n = add itree_nodes n
let add_fmh_nodes n = add fmh_nodes n
let add_mesh_cells n = add mesh_cells n
let add_bytes_out n = add bytes_out n
let add_locate_sign_tests n = add locate_sign_tests n
let add_frag_hit () = Atomic.incr frag_hits
let add_frag_miss () = Atomic.incr frag_misses
let add_build_crossings n = add build_crossings n

let total_node_visits s = s.itree_nodes + s.fmh_nodes + s.mesh_cells
