(* perfbench: the benchmark's one executable. Without a role it is the
   runner, which re-executes it as the owner, server and replay roles.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 *)

let () =
  let argv = Array.to_list Sys.argv in
  let role, args =
    match argv with
    | _ :: (("owner" | "serve" | "replay") as r) :: rest -> (r, rest)
    | _ :: rest -> ("run", rest)
    | [] -> ("run", [])
  in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let usage () =
    prerr_endline "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    exit 2
  in
  let opts = try opts [] args with Failure _ -> usage () in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let get_opt k = List.assoc_opt k opts in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  match role with
  | "owner" ->
    Owner.run ~workload:(get "workload") ~seed:(int "seed") ~dir:(get "dir")
      ~spans_path:(get_opt "spans")
  | "serve" ->
    Server.run ~dir:(get "dir") ~port_file:(get "port-file") ~spans_path:(get_opt "spans")
  | "replay" ->
    Replay.run ~workload:(get "workload") ~seed:(int "seed") ~dir:(get "dir")
      ~sent:(int "sent")
      ~spans_path:(get_opt "spans")
  | _ ->
    let seconds = int "seconds" in
    let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if seconds < 1 then usage ();
    (* a run ends within 180 s; stop every child on the way out *)
    let abort _ =
      Runner.kill_all ();
      prerr_endline "perfbench: run aborted";
      exit 1
    in
    List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle abort)) [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
    ignore (Unix.alarm 170);
    (match
       Runner.run ~workload:(get "workload") ~seed:(int "seed")
         ~seconds:(float_of_int seconds) ~traced
     with
    | () -> ()
    | exception e ->
      Runner.kill_all ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1)
