(* Reference verifier: the client's rule, stated once, from the paper
   (§3.3) and the hardening DESIGN adds, against public interfaces only.
   It keeps no memo and no state beyond the owner's key, the template,
   the domain and the minimum epoch. For each reply it recomputes every
   record digest, rebuilds the FMH root from the window and the range
   proof, folds the IMH path (one signature) or rebuilds the leaf
   signing digest (multi-signature), checks the signature, and re-runs
   the query on reduced scores with [Rational.compare], record by
   record. It returns the checks it ran, in order, each passed or
   failed, and stops at the first failure, as a later check would read
   values the failed one did not vouch for. Each check carries the
   [Client.rejection] it stands for: the client must reject a reply
   exactly when a check fails here, and name the first one that does. *)

open Aqv
module Q = Aqv_num.Rational
module Domain = Aqv_num.Domain
module Halfspace = Aqv_num.Halfspace
module Mht = Aqv_merkle.Mht
module Record = Aqv_db.Record
module Template = Aqv_db.Template

type check = { name : string; reject : Client.rejection; ok : bool }

type t = {
  template : Template.t;
  domain : Domain.t;
  verify_signature : string -> string -> bool;
  min_epoch : int;
}

let make ~template ~domain ~verify_signature ~min_epoch =
  { template; domain; verify_signature; min_epoch }

let accepts checks = List.for_all (fun c -> c.ok) checks
let first_failure checks = List.find_opt (fun c -> not c.ok) checks

exception Stop

(* [f check] runs the checks; [check name reject ok] logs one and stops
   the run when it fails *)
let run f =
  let log = ref [] in
  let check name reject ok =
    log := { name; reject; ok } :: !log;
    if not ok then raise Stop
  in
  (try f check with Stop -> ());
  List.rev !log

(* a record's reduced score at [x], or [None] if it cannot be scored *)
let score t r x = try Some (Template.score t.template r x) with Invalid_argument _ -> None

(* a score on the extended line: the sentinels score -inf and +inf *)
type ext = Lo | At of Q.t | Hi

let le a b =
  match (a, b) with
  | Lo, _ | _, Hi -> true
  | _, Lo | Hi, _ -> false
  | At a, At b -> Q.compare a b <= 0

let leaf_digest = function
  | Vo.Min_sentinel -> Record.min_sentinel_digest
  | Vo.Max_sentinel -> Record.max_sentinel_digest
  | Vo.Boundary_record r -> Record.digest r

(* Step 3 of §3.3: [fmh_root] is the root the owner signed for the
   subdomain that contains [x]. *)
let signed t check ~x ~fmh_root ~n_leaves ~epoch subdomain ~signature =
  (* a constraint [(rp, rq, side)] holds at [x] when [x] lies on [side]
     of the intersection of the two functions, a tie counting as above *)
  let on_side (rp, rq, side) =
    match (score t rp x, score t rq x) with
    | Some sp, Some sq ->
      check "constraint records scorable" Client.Malformed true;
      let at = if Q.compare sp sq >= 0 then Halfspace.Above else Halfspace.Below in
      check "x on the constraint's side" Client.Wrong_subdomain (at = side)
    | _ -> check "constraint records scorable" Client.Malformed false
  in
  let digest =
    match subdomain with
    | Vo.One_sig_path steps ->
      let root_hash =
        List.fold_left
          (fun h (s : Vo.path_step) ->
            on_side (s.Vo.rp, s.Vo.rq, s.Vo.taken);
            let rp_digest = Record.digest s.Vo.rp and rq_digest = Record.digest s.Vo.rq in
            match s.Vo.taken with
            | Halfspace.Above ->
              Ifmh.inode_digest ~rp_digest ~rq_digest ~above:h ~below:s.Vo.sibling
            | Halfspace.Below ->
              Ifmh.inode_digest ~rp_digest ~rq_digest ~above:s.Vo.sibling ~below:h)
          fmh_root steps
      in
      Ifmh.root_digest_for_signing ~root_hash ~n_leaves ~epoch
    | Vo.Multi_sig_constraints cons ->
      List.iter on_side cons;
      Ifmh.leaf_digest_for_signing
        ~prefix:(Ifmh.leaf_signing_prefix t.domain)
        ~cons_digests:(List.map (fun (rp, rq, side) -> (Record.digest rp, Record.digest rq, side)) cons)
        ~fmh_root ~n_leaves ~epoch
  in
  check "owner's signature" Client.Bad_signature (t.verify_signature digest signature)

(* Steps 1-3 of §3.3: the reply's window is a contiguous run of the
   list signed for the subdomain that contains [x]. *)
let authenticate t check ~x (resp : Server.response) =
  let vo = resp.Server.vo in
  check "query point in the domain" Client.Outside_domain
    (Array.length x = Domain.dim t.domain && Domain.contains t.domain x);
  let n = vo.Vo.n_leaves - 2 in
  check "list holds a record" Client.Malformed (n >= 1);
  check "epoch fresh" Client.Stale_epoch (vo.Vo.epoch >= t.min_epoch);
  let lo = vo.Vo.window_lo and hi = vo.Vo.window_lo + List.length resp.Server.result - 1 in
  check "window inside the list" Client.Malformed (lo >= 1 && hi <= n && lo <= hi + 1);
  check "left boundary in place" Client.Malformed
    (match vo.Vo.left with
    | Vo.Min_sentinel -> lo = 1
    | Vo.Max_sentinel -> false
    | Vo.Boundary_record _ -> lo >= 2);
  check "right boundary in place" Client.Malformed
    (match vo.Vo.right with
    | Vo.Max_sentinel -> hi = n
    | Vo.Min_sentinel -> false
    | Vo.Boundary_record _ -> hi + 1 <= n);
  let leaves =
    (leaf_digest vo.Vo.left :: List.map Record.digest resp.Server.result)
    @ [ leaf_digest vo.Vo.right ]
  in
  let fmh_root =
    Mht.root_of_range ~node_hash:Mht.node_hash ~n:vo.Vo.n_leaves ~lo:(lo - 1) ~leaves
      ~proof:vo.Vo.fmh_proof
  in
  check "FMH root rebuilt" Client.Malformed (fmh_root <> None);
  let fmh_root = Option.get fmh_root in
  signed t check ~x ~fmh_root ~n_leaves:vo.Vo.n_leaves ~epoch:vo.Vo.epoch vo.Vo.subdomain
    ~signature:vo.Vo.signature;
  n

(* Step 4: re-run the query on the authenticated window, record by
   record. Every score is computed before any is compared. *)
let semantics t check ~n query (resp : Server.response) =
  let x = Query.x query and vo = resp.Server.vo in
  let ext = function
    | Vo.Min_sentinel -> Some Lo
    | Vo.Max_sentinel -> Some Hi
    | Vo.Boundary_record r -> Option.map (fun s -> At s) (score t r x)
  in
  let scores = List.map (fun r -> Option.map (fun s -> At s) (score t r x)) resp.Server.result in
  let left = ext vo.Vo.left and right = ext vo.Vo.right in
  check "window records scorable" Client.Malformed
    (List.for_all Option.is_some (left :: right :: scores));
  let left = Option.get left and right = Option.get right in
  let window = List.map Option.get scores in
  let rec sorted = function a :: (b :: _ as rest) -> le a b && sorted rest | _ -> true in
  check "scores in committed order" Client.Order_violation (sorted ((left :: window) @ [ right ]));
  let count = List.length window in
  match query with
  | Query.Range { l; u; _ } ->
    List.iter
      (fun s -> check "result record in range" Client.Boundary_violation (le (At l) s && le s (At u)))
      window;
    check "left boundary below the range" Client.Boundary_violation (not (le (At l) left));
    check "right boundary above the range" Client.Boundary_violation (not (le right (At u)))
  | Query.Top_k { k; _ } ->
    check "top-k count" Client.Count_mismatch (count = min k n);
    check "top-k ends at the max sentinel" Client.Boundary_violation (vo.Vo.right = Vo.Max_sentinel);
    if count = n then
      check "whole list from the min sentinel" Client.Boundary_violation
        (vo.Vo.left = Vo.Min_sentinel)
  | Query.Knn { k; y; _ } ->
    check "knn count" Client.Count_mismatch (count = min k n);
    let dist = function Lo | Hi -> Hi | At s -> At (Q.abs (Q.sub s y)) in
    List.iter
      (fun s ->
        check "no nearer left neighbour" Client.Boundary_violation (le (dist s) (dist left));
        check "no nearer right neighbour" Client.Boundary_violation (le (dist s) (dist right)))
      window

let verify t query resp =
  run (fun check ->
      let n = authenticate t check ~x:(Query.x query) resp in
      semantics t check ~n query resp)

(* [Client.verify_rank]: the window is the one record asked about, and
   its position in the list is its rank *)
let verify_rank t ~x ~record_id resp =
  run (fun check ->
      ignore (authenticate t check ~x resp);
      match resp.Server.result with
      | [ r ] -> check "the record asked about" Client.Boundary_violation (Record.id r = record_id)
      | _ -> check "one record" Client.Count_mismatch false)

(* [Count.verify]: four anchors, each a boundary with a positional
   path, resolve to one FMH root. The outer two lie just outside
   [\[l, u\]] and their positions give the count; the inner two, present
   iff the count is not zero, are the window's first and last members,
   next to the outer ones and inside the range. Returns the checks and,
   when every check passed, the certified count. *)
let count t ~x ~l ~u (resp : Count.response) =
  let certified = ref None in
  let checks =
    run (fun check ->
        check "range bounds ordered" Client.Malformed (Q.compare l u <= 0);
        check "epoch fresh" Client.Stale_epoch (resp.Count.epoch >= t.min_epoch);
        check "query point in the domain" Client.Outside_domain
          (Array.length x = Domain.dim t.domain && Domain.contains t.domain x);
        let n_leaves = resp.Count.n_leaves in
        check "list holds a record" Client.Malformed (n_leaves - 2 >= 1);
        let resolve name (a : Count.anchor) =
          let pos = Mht.index_of_path ~n:n_leaves ~path:a.Count.path in
          check (name ^ " anchor has a position") Client.Malformed (pos <> None);
          (Mht.root_of_path ~leaf:(leaf_digest a.Count.boundary) ~path:a.Count.path, Option.get pos)
        in
        let root, il = resolve "left outer" resp.Count.louter in
        let root_r, ir = resolve "right outer" resp.Count.router in
        check "outer anchors share one root" Client.Malformed (String.equal root root_r);
        check "outer positions ordered" Client.Malformed (il < ir && ir <= n_leaves - 1);
        check "left outer anchor in place" Client.Malformed
          (match resp.Count.louter.Count.boundary with
          | Vo.Min_sentinel -> il = 0
          | Vo.Boundary_record _ -> il >= 1
          | Vo.Max_sentinel -> false);
        check "right outer anchor in place" Client.Malformed
          (match resp.Count.router.Count.boundary with
          | Vo.Max_sentinel -> ir = n_leaves - 1
          | Vo.Boundary_record _ -> ir <= n_leaves - 2
          | Vo.Min_sentinel -> false);
        (* a record anchor's score, checked scorable; [None] for a sentinel *)
        let scored name (a : Count.anchor) =
          match a.Count.boundary with
          | Vo.Boundary_record r ->
            let s = score t r x in
            check (name ^ " record scorable") Client.Malformed (s <> None);
            s
          | Vo.Min_sentinel | Vo.Max_sentinel -> None
        in
        Option.iter
          (fun s -> check "left outer record below l" Client.Boundary_violation (Q.compare s l < 0))
          (scored "left outer" resp.Count.louter);
        Option.iter
          (fun s -> check "right outer record above u" Client.Boundary_violation (Q.compare s u > 0))
          (scored "right outer" resp.Count.router);
        let count = ir - il - 1 in
        (match resp.Count.inner with
        | None -> check "inner anchors for a nonzero count" Client.Count_mismatch (count = 0)
        | Some (first, last) ->
          check "no inner anchors for a zero count" Client.Count_mismatch (count > 0);
          let root_f, i_f = resolve "first inner" first in
          let root_l, i_l = resolve "last inner" last in
          check "inner anchors share the root" Client.Malformed
            (String.equal root_f root && String.equal root_l root);
          check "inner anchors next to the outer ones" Client.Malformed
            (i_f = il + 1 && i_l = ir - 1);
          (* a sentinel never satisfies a value condition *)
          let in_range name a =
            match scored name a with
            | Some s ->
              check (name ^ " record in range") Client.Boundary_violation
                (Q.compare l s <= 0 && Q.compare s u <= 0)
            | None -> check (name ^ " anchor is a record") Client.Boundary_violation false
          in
          in_range "first inner" first;
          in_range "last inner" last);
        signed t check ~x ~fmh_root:root ~n_leaves ~epoch:resp.Count.epoch resp.Count.subdomain
          ~signature:resp.Count.signature;
        certified := Some count)
  in
  (checks, !certified)
