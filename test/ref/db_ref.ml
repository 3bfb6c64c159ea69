(* Test-side helpers over [Aqv_db], written against the public
   interfaces only. *)

module Spec = Aqv_db.Spec

(* Parse a spec from a string through [Spec.load], the one public
   parser, by way of a temporary file. *)
let spec_of_string s =
  let path = Filename.temp_file "aqv-spec" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      Spec.load path)

let spec_of_json j = spec_of_string (Aqv_util.Json.to_string j)

(* A record's attributes, one [Record.attr] each. *)
let record_attrs r = Array.init (Aqv_db.Record.arity r) (Aqv_db.Record.attr r)
