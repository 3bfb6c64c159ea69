module W = Aqv_util.Wire
module Record = Aqv_db.Record
module Table = Aqv_db.Table

type change =
  | Insert of Record.t
  | Delete of int
  | Modify of Record.t

(* One change over a record list; positions in list order mirror the
   table's array order, so Modify keeps the position and Insert appends
   — the invariant both ends of a delta rely on. *)
let apply_one records = function
  | Insert r ->
    if List.exists (fun r' -> Record.id r' = Record.id r) records then
      invalid_arg (Printf.sprintf "Update: insert of existing id %d" (Record.id r));
    records @ [ r ]
  | Delete id ->
    if not (List.exists (fun r' -> Record.id r' = id) records) then
      invalid_arg (Printf.sprintf "Update: delete of unknown id %d" id);
    List.filter (fun r' -> Record.id r' <> id) records
  | Modify r ->
    if not (List.exists (fun r' -> Record.id r' = Record.id r) records) then
      invalid_arg (Printf.sprintf "Update: modify of unknown id %d" (Record.id r));
    List.map (fun r' -> if Record.id r' = Record.id r then r else r') records

let apply_table changes table =
  let records =
    List.fold_left apply_one (Array.to_list (Table.records table)) changes
  in
  if List.is_empty records then invalid_arg "Update: change list empties the table";
  Table.make ~records ~template:(Table.template table) ~domain:(Table.domain table)

(* ----------------------------- compose ----------------------------- *)

(* Symbolic state of one id while folding a change sequence. [Base]:
   still at its base-table position (content replaced if modified);
   [Gone]: currently deleted; [Appended]: currently live in the appended
   section, stamped with the time of its *last* insertion — deletions
   preserve the relative order of later appends, so surviving appended
   records end up ordered by exactly that stamp. *)
type live = Base of Record.t | Gone | Appended of Record.t * int

type slot = { in_base : bool; mutable live : live }

let compose_all ?exists frames =
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] (* first-touch order, reversed *) in
  let stamp = ref 0 in
  let fresh id ~in_base live =
    order := id :: !order;
    Hashtbl.replace slots id { in_base; live }
  in
  (* first touch of an id: with [exists] the op is validated against the
     base table exactly as the sequential replay would; without it the
     op is trusted (Modify/Delete imply the id is in the base, Insert
     that it is not) *)
  let check_absent id =
    match exists with
    | Some e when e id -> invalid_arg (Printf.sprintf "Update: insert of existing id %d" id)
    | _ -> ()
  and check_present what id =
    match exists with
    | Some e when not (e id) ->
      invalid_arg (Printf.sprintf "Update: %s of unknown id %d" what id)
    | _ -> ()
  in
  let step = function
    | Insert r -> (
      let id = Record.id r in
      incr stamp;
      match Hashtbl.find_opt slots id with
      | None ->
        check_absent id;
        fresh id ~in_base:false (Appended (r, !stamp))
      | Some s -> (
        match s.live with
        | Gone -> s.live <- Appended (r, !stamp)
        | Base _ | Appended _ ->
          invalid_arg (Printf.sprintf "Update: insert of existing id %d" id)))
    | Delete id -> (
      match Hashtbl.find_opt slots id with
      | None ->
        check_present "delete" id;
        fresh id ~in_base:true Gone
      | Some s -> (
        match s.live with
        | Base _ | Appended _ -> s.live <- Gone
        | Gone -> invalid_arg (Printf.sprintf "Update: delete of unknown id %d" id)))
    | Modify r -> (
      let id = Record.id r in
      match Hashtbl.find_opt slots id with
      | None ->
        check_present "modify" id;
        fresh id ~in_base:true (Base r)
      | Some s -> (
        match s.live with
        | Base _ -> s.live <- Base r
        | Appended (_, t) -> s.live <- Appended (r, t)
        | Gone -> invalid_arg (Printf.sprintf "Update: modify of unknown id %d" id)))
  in
  List.iter (List.iter step) frames;
  let ids = List.rev !order in
  (* Normal form: Modifies (base positions unchanged), then Deletes
     (base order of survivors unchanged), then Inserts by last-insertion
     stamp — applying it to the base table reproduces the sequential
     result positionally. A deleted-then-reinserted base id stays
     Delete-then-Insert: the record moved to the appended end, a Modify
     would leave it at its base position. *)
  let modifies =
    List.filter_map
      (fun id ->
        match (Hashtbl.find slots id).live with Base r -> Some (Modify r) | _ -> None)
      ids
  in
  let deletes =
    List.filter_map
      (fun id ->
        let s = Hashtbl.find slots id in
        match s.live with (Gone | Appended _) when s.in_base -> Some (Delete id) | _ -> None)
      ids
  in
  let inserts =
    List.filter_map
      (fun id ->
        match (Hashtbl.find slots id).live with Appended (r, t) -> Some (t, r) | _ -> None)
      ids
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (_, r) -> Insert r)
  in
  modifies @ deletes @ inserts

let compose ?exists a b = compose_all ?exists [ a; b ]

let encode_change w = function
  | Insert r ->
    W.u8 w 0;
    Record.encode w r
  | Delete id ->
    W.u8 w 1;
    W.varint w id
  | Modify r ->
    W.u8 w 2;
    Record.encode w r

let decode_change r =
  match W.read_u8 r with
  | 0 -> Insert (Record.decode r)
  | 1 -> Delete (W.read_varint r)
  | 2 -> Modify (Record.decode r)
  | _ -> failwith "Update: bad change tag"
