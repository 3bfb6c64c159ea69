(* The line protocol between the roles: a child reports to the runner on
   its stdout, one message per line; "m <name> <value>" lines carry a
   per-layer metric. *)

let say fmt =
  Printf.ksprintf
    (fun s ->
      print_string (s ^ "\n");
      flush stdout)
    fmt

let metric name value = say "m %s %.17g" name value

(* The metric lines read from [ic] up to a line [stop], or to the end. *)
let read_metrics ?stop ic =
  let rec go acc =
    match In_channel.input_line ic with
    | None -> acc
    | Some l -> (
      match String.split_on_char ' ' l with
      | [ "m"; name; v ] -> go ((name, float_of_string v) :: acc)
      | [ w ] when Some w = stop -> acc
      | _ -> go acc)
  in
  go []
