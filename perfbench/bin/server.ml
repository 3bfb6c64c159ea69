(* The server role, one process, as `aqv_net serve` runs it: recover the
   published store (default flush policy), create the engine with the
   default configuration on an ephemeral port, serve until SIGTERM. The
   port file appears once the engine listens — the moment the first
   query can be sent. *)

open Perfbench_kit
module Store = Aqv_store.Store
module Engine = Aqv_serve.Engine

let run ~dir ~port_file ~spans_path =
  let rec_ = Spans.create () in
  let span name f =
    if Option.is_some spans_path then Spans.time rec_ name (fun _ -> f ()) else f ()
  in
  match span "store.open_dir" (fun () -> Store.open_dir ~policy:Store.default_policy dir) with
  | Error e ->
    prerr_endline ("perfbench serve: cannot recover " ^ dir ^ ": " ^ Aqv_store.Error.to_string e);
    exit 1
  | Ok (store, index, _recovery) ->
    let engine =
      span "engine.create" (fun () ->
          Engine.create { Engine.default_config with port = 0; store = Some store } index)
    in
    let stop _ = Engine.stop engine in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* never outlive the runner *)
    let parent = Unix.getppid () in
    ignore
      (Thread.create
         (fun () ->
           while Unix.getppid () = parent do Thread.delay 0.5 done;
           Engine.stop engine)
         ());
    let tmp = port_file ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (string_of_int (Engine.port engine)));
    Unix.rename tmp port_file;
    Engine.serve engine;
    Store.close store;
    Option.iter (fun path -> Spans.save path (Spans.to_array rec_)) spans_path
