module Wire = Aqv_util.Wire
module Protocol = Aqv.Protocol

type opts = {
  connect_timeout : float;
  read_timeout : float;
  attempts : int;
  backoff : float;
}

let default_opts =
  { connect_timeout = 1.0; read_timeout = 5.0; attempts = 8; backoff = 0.05 }

exception Connect_timeout

(* Nonblocking connect + select so a dead peer cannot hold us for the
   kernel's multi-minute SYN timeout. *)
let connect_once ?(host = Unix.inet_addr_loopback) ~timeout port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_INET (host, port) in
  try
    Unix.set_nonblock fd;
    (try Unix.connect fd addr
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
       match Unix.select [] [ fd ] [] timeout with
       | _, [ _ ], _ -> (
         match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", "")))
       | _ -> raise Connect_timeout));
    Unix.clear_nonblock fd;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let transient = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT
        | Unix.ENETUNREACH | Unix.EAGAIN | Unix.EWOULDBLOCK ),
        _,
        _ )
  | Connect_timeout | Frame_io.Timeout
  | Failure _ ->
    true
  | _ -> false

let retrying opts label f =
  let rec go attempt sleep =
    match f () with
    | v -> v
    | exception e when transient e ->
      if attempt + 1 >= opts.attempts then
        failwith
          (Printf.sprintf "Roundtrip: %s failed after %d attempts (last: %s)"
             label opts.attempts (Printexc.to_string e))
      else begin
        Thread.delay sleep;
        go (attempt + 1) (sleep *. 2.)
      end
  in
  go 0 opts.backoff

let connect ?(opts = default_opts) ?host port =
  retrying opts "connect" (fun () ->
      connect_once ?host ~timeout:opts.connect_timeout port)

let ask ?(opts = default_opts) fd request =
  let w = Frame_io.writer () in
  Protocol.encode_request w request;
  ignore (Frame_io.write_writer ~timeout:opts.read_timeout fd w);
  match
    Frame_io.read_frame ~header_timeout:opts.read_timeout
      ~body_timeout:opts.read_timeout fd
  with
  | Some payload -> Protocol.decode_reply (Wire.reader payload)
  | None -> failwith "Roundtrip: server closed the connection"

let with_connection ?(opts = default_opts) ?host ~port f =
  let fd = connect ~opts ?host port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let call ?(opts = default_opts) ?host ~port request =
  retrying opts "call" (fun () ->
      let fd = connect_once ?host ~timeout:opts.connect_timeout port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> ask ~opts fd request))
