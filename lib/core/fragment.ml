module W = Aqv_util.Wire
module Record = Aqv_db.Record
module Halfspace = Aqv_num.Halfspace
module Metrics = Aqv_util.Metrics

(* Content-addressed cache of per-subdomain VO pieces, carried on the
   index and shared across epochs: a
   key commits the full content the cached piece is a function of —
   record digests, window position, FMH root, sibling hashes — never a
   leaf id, cell index or epoch. That is what makes sharing across
   republishes sound: an entry either still describes exactly the bytes
   the current index would assemble (key match, by collision resistance
   of the digests) or it can never be found again (key mismatch): pure
   function results keyed by full input content, never tree
   structure. *)

type window = {
  left : Vo.boundary;
  right : Vo.boundary;
  result : Record.t list;
}

type value =
  | Window of window
  | Range of string list  (** an FMH range proof *)
  | Proof of Vo.subdomain_proof

(* What a republish must treat as dirtied: entries built from specific
   records (window bodies, multi-sig constraint lists) name them;
   entries whose bytes commit the whole structure (range proofs, one-sig
   paths with sibling hashes) are dirtied by any change. *)
type deps = Records of int list | Whole_index

type entry = { value : value; deps : deps }

type t = {
  capacity : int;  (** 0 disables the cache entirely *)
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let with_capacity capacity =
  { capacity; mu = Mutex.create (); tbl = Hashtbl.create 256; hits = 0; misses = 0 }

let create () = with_capacity 4096
let disabled () = with_capacity 0

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let counters t = locked t (fun () -> (t.hits, t.misses))

let find t key =
  if t.capacity = 0 then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.hits <- t.hits + 1;
          Metrics.add_frag_hit ();
          Some e.value
        | None ->
          t.misses <- t.misses + 1;
          Metrics.add_frag_miss ();
          None)

let add t key ~deps value =
  if t.capacity > 0 then
    locked t (fun () ->
        (* flush-on-full: crude but deterministic, and correctness never
           depends on what is cached *)
        if Hashtbl.length t.tbl >= t.capacity && not (Hashtbl.mem t.tbl key) then
          Hashtbl.reset t.tbl;
        Hashtbl.replace t.tbl key { value; deps })

(* Republish hygiene: entries touching a changed record (or committing
   the whole structure) can never match again — their keys embed the old
   digests — so drop them eagerly rather than waiting for the
   flush-on-full. Purging more than necessary would still be correct;
   purging less only wastes slots. *)
let purge t ~ids =
  if t.capacity > 0 && ids <> [] then
    locked t (fun () ->
        let changed = Hashtbl.create (List.length ids) in
        List.iter (fun id -> Hashtbl.replace changed id ()) ids;
        let doomed =
          Hashtbl.fold
            (fun key e acc ->
              let dirty =
                match e.deps with
                | Whole_index -> true
                | Records rs -> List.exists (Hashtbl.mem changed) rs
              in
              if dirty then key :: acc else acc)
            t.tbl []
        in
        List.iter (Hashtbl.remove t.tbl) doomed)

(* ------------------------------- keys ------------------------------- *)

(* Every key starts with a kind tag, then self-delimiting fields
   ([W.bytes] is length-prefixed), so keys of different kinds or shapes
   can never alias. *)

let window_key ~window_lo ~left ~result ~right =
  let w = W.writer () in
  W.u8 w 0;
  W.varint w window_lo;
  W.bytes w left;
  W.varint w (List.length result);
  List.iter (W.bytes w) result;
  W.bytes w right;
  W.contents w

let range_key ~fmh_root ~lo ~hi =
  let w = W.writer () in
  W.u8 w 1;
  W.bytes w fmh_root;
  W.varint w lo;
  W.varint w hi;
  W.contents w

let one_sig_key steps =
  let w = W.writer () in
  W.u8 w 2;
  W.varint w (List.length steps);
  List.iter
    (fun (dp, dq, side, sibling) ->
      W.bytes w dp;
      W.bytes w dq;
      W.u8 w (Halfspace.side_to_int side);
      W.bytes w sibling)
    steps;
  W.contents w

let multi_sig_key cons =
  let w = W.writer () in
  W.u8 w 3;
  W.varint w (List.length cons);
  List.iter
    (fun (dp, dq, side) ->
      W.bytes w dp;
      W.bytes w dq;
      W.u8 w (Halfspace.side_to_int side))
    cons;
  W.contents w
