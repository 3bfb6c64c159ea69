module Q = Aqv_num.Rational
module Linfun = Aqv_num.Linfun
module Region = Aqv_num.Region
module Domain = Aqv_num.Domain
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Metrics = Aqv_util.Metrics

type pair_geom = {
  diff : Linfun.t;
  zero : bool;
  box : Region.split option;
  root1 : Q.t option;
}

type fmh_entry = { digests : string array; tree : Mht.t }

type t = {
  domain : Domain.t;
  box : Region.t;  (** [Region.of_domain domain], shared by every classify *)
  pairs : (int * int, pair_geom) Hashtbl.t;
  fmh : (string, fmh_entry) Hashtbl.t;
}

let create domain =
  {
    domain;
    box = Region.of_domain domain;
    pairs = Hashtbl.create 256;
    fmh = Hashtbl.create 64;
  }

let compatible t domain = Domain.equal t.domain domain

type use = {
  prev : t option;
  cur : t;
  ids : int array;
  changed : int -> bool;
}

let use ?prev ?(changed = fun _ -> true) ~ids cur =
  let prev = match prev with Some p when compatible p cur.domain -> Some p | _ -> None in
  { prev; cur; ids; changed }

(* ---------------------------- pair geometry ------------------------- *)

let compute ~box ~dim fa fb =
  let diff = Linfun.sub fa fb in
  let zero = Linfun.is_zero diff in
  let box_cls = if zero then None else Some (Region.classify box diff) in
  let root1 =
    if zero || dim <> 1 then None
    else
      let a = Linfun.coeff diff 0 and b = Linfun.const diff in
      if Q.sign a = 0 then None else Some (Q.div (Q.neg b) a)
  in
  { diff; zero; box = box_cls; root1 }

(* Read-only carry-over lookup: the previous build's result is valid
   exactly when both records are unchanged. The crossing enumerator
   consults each pair at most once per build, so there is no within-build [cur]
   consultation — [cur] only collects what [register_geom] retains for
   the next rebuild. Ticks hit/miss so per-pair totals stay exactly one
   tick, independent of chunking and pool size. *)
let find_geom u ~i ~j =
  let carried =
    if u.changed i || u.changed j then None
    else
      match u.prev with
      | None -> None
      | Some p -> Hashtbl.find_opt p.pairs (u.ids.(i), u.ids.(j))
  in
  (match carried with
  | Some _ -> Metrics.add_memo_pair_hit ()
  | None -> Metrics.add_memo_pair_miss ());
  carried

let register_geom u ~i ~j g = Hashtbl.replace u.cur.pairs (u.ids.(i), u.ids.(j)) g

(* -------------------------- FMH snapshots --------------------------- *)

let fmh_key u ~order =
  let b = Buffer.create (Array.length order * 3) in
  Array.iter
    (fun p ->
      let id = ref u.ids.(p) in
      (* unsigned LEB128: ids are non-negative and self-delimiting, so
         the id sequence maps to a unique byte string *)
      let continue = ref true in
      while !continue do
        let byte = !id land 0x7f in
        id := !id lsr 7;
        if !id = 0 then begin
          Buffer.add_char b (Char.chr byte);
          continue := false
        end
        else Buffer.add_char b (Char.chr (byte lor 0x80))
      done)
    order;
  Buffer.contents b

let digests_of rdig order =
  let n = Array.length order in
  let digests = Array.make (n + 2) Record.min_sentinel_digest in
  digests.(n + 1) <- Record.max_sentinel_digest;
  for k = 0 to n - 1 do
    digests.(k + 1) <- rdig.(order.(k))
  done;
  digests

let find_fmh u ~key ~rdig ~order =
  match u.prev with
  | None ->
    Metrics.add_memo_fmh_miss ();
    None
  | Some p -> (
    match Hashtbl.find_opt p.fmh key with
    | None ->
      Metrics.add_memo_fmh_miss ();
      None
    | Some e ->
      (* same id sequence, hence the same leaf count and tree shape:
         patch the persistent tree where a record digest moved on *)
      Metrics.add_memo_fmh_hit ();
      let tree = ref e.tree in
      Array.iteri
        (fun k p ->
          let d = rdig.(p) in
          if not (String.equal e.digests.(k + 1) d) then tree := Mht.set !tree (k + 1) d)
        order;
      Some !tree)

let add_fmh u ~key ~rdig ~order tree =
  Hashtbl.replace u.cur.fmh key { digests = digests_of rdig order; tree }
