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
    into one buffer that starts at no more than 64 KiB and grows only
    as bytes arrive — an attacker-supplied length never causes an eager
    allocation of the claimed size. [header_timeout] bounds the wait
    for the frame to start (idle keep-alive), [body_timeout] the rest
    of the frame; omitted timeouts leave the socket's current setting
    untouched, and a [body_timeout] equal to [header_timeout] is not
    set a second time.
    @raise Timeout on an expired deadline
    @raise Failure on oversized or truncated frames. *)

val write_frame : ?timeout:float -> Unix.file_descr -> string -> int
(** Frames a payload and writes it. Returns total bytes written
    (payload + 4-byte header).
    @raise Timeout on an expired deadline
    @raise Failure if the payload exceeds the frame cap. *)

val writer : unit -> Aqv_util.Wire.writer
(** A {!Aqv_util.Wire} writer that holds back room for the frame
    header, so what is encoded into it leaves as a frame in one copy
    ({!framed}) or none ({!write_writer}). An engine session encodes
    all its replies into one, emptied by {!Aqv_util.Wire.reset} before
    each, writes each from it and copies only the replies it caches. *)

val framed : Aqv_util.Wire.writer -> string
(** The on-wire form (4-byte header + payload) of what was written to
    a {!writer}, as a copy: the writer can be reset and reused.
    @raise Failure if the payload exceeds the frame cap. *)

val write_writer : ?timeout:float -> Unix.file_descr -> Aqv_util.Wire.writer -> int
(** Writes what was written to a {!writer} as one frame, straight from
    the writer's buffer: no copy is made. Returns the frame's length.
    @raise Timeout on an expired deadline
    @raise Failure if the payload exceeds the frame cap. *)

val write_framed : ?timeout:float -> Unix.file_descr -> string -> int
(** Writes a string that is already a frame (from {!framed}) as it is.
    Returns its length.
    @raise Timeout on an expired deadline *)

val write_raw : Unix.file_descr -> string -> unit
(** Best-effort raw write (the listener's overload refusal, written
    from the accept loop): errors and short writes are ignored. *)
