(** Deadline-aware frame I/O over raw file descriptors.

    The one framer of the wire protocol (4-byte big-endian length
    prefix, 64 MiB cap) over [Unix.file_descr], with per-phase timeouts
    via [SO_RCVTIMEO]/[SO_SNDTIMEO], so the engine, the replication
    hub, router and follower, and the client roundtrip path all get
    bounded blocking without an event loop. All calls retry [EINTR]. *)

exception Timeout
(** A read or write exceeded its deadline. *)

val read_frame :
  ?header_timeout:float -> ?body_timeout:float -> Unix.file_descr -> string option
(** [None] on clean EOF before the first header byte. The body is read
    in bounded chunks — an attacker-supplied length never causes an
    eager allocation of the claimed size. [header_timeout] bounds the
    wait for the frame to start (idle keep-alive), [body_timeout] the
    rest of the frame; omitted timeouts leave the socket's current
    setting untouched.
    @raise Timeout on an expired deadline
    @raise Failure on oversized or truncated frames. *)

val write_frame : ?timeout:float -> Unix.file_descr -> string -> int
(** Returns total bytes written (payload + 4-byte header).
    @raise Timeout on an expired deadline
    @raise Failure if the payload exceeds the frame cap. *)

val write_raw : Unix.file_descr -> string -> unit
(** Best-effort raw write (fault injection's truncated sends): errors
    and short writes are ignored. *)

val frame : string -> string
(** The on-wire form of a payload: 4-byte header + payload.
    @raise Failure if the payload exceeds the frame cap. *)

