type t = {
  records : Record.t array;
  template : Template.t;
  domain : Aqv_num.Domain.t;
  functions : Aqv_num.Linfun.t array;
  pos_by_id : (int, int) Hashtbl.t;
}

let make ~records ~template ~domain =
  if Template.dim template <> Aqv_num.Domain.dim domain then
    invalid_arg "Table.make: template/domain dimension mismatch";
  let records = Array.of_list records in
  let pos_by_id = Hashtbl.create (Array.length records) in
  Array.iteri
    (fun i r ->
      if Hashtbl.mem pos_by_id (Record.id r) then invalid_arg "Table.make: duplicate record id";
      Hashtbl.add pos_by_id (Record.id r) i)
    records;
  let functions = Array.map (Template.apply template) records in
  { records; template; domain; functions; pos_by_id }

let records t = t.records
let record t i = t.records.(i)
let size t = Array.length t.records
let template t = t.template
let domain t = t.domain
let dim t = Aqv_num.Domain.dim t.domain
let functions t = t.functions
let position_by_id t id = Hashtbl.find_opt t.pos_by_id id

let pp ppf t =
  Format.fprintf ppf "table(%d records, %a, %a)" (size t) Template.pp t.template
    Aqv_num.Domain.pp t.domain
