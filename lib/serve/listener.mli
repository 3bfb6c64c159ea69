(** The one TCP front door under {!Engine} and [Aqv_cluster.Router].

    Thread-per-connection over a loopback listening socket: each
    admitted client gets its own session thread, so one slow or hung
    client cannot block the others. The listener owns everything around
    the session itself:

    - bind and listen on 127.0.0.1 (backlog 64);
    - a select-then-accept loop that sleeps until a connection or
      {!stop}'s byte on a self-pipe arrives, so a stop wakes it at once
      and a signal handler only has to call {!stop};
    - admission against a connection bound: past it, the connection
      gets a framed [Refused "overloaded"] written straight from the
      accept loop (a refusal costs no thread) and is closed;
    - one thread per admitted session, which closes its fd and releases
      its slot however the session ends;
    - on stop, EOF for every session's reads, a bounded drain of the
      sessions still running, then the close of the listening socket. *)

type t

val create : port:int -> t
(** Binds 127.0.0.1:[port] (0 picks an ephemeral port; see {!port}) and
    listens, so clients can connect before {!serve} runs. It also sets
    SIGPIPE to ignored, process-wide: every serving process writes to
    sockets whose peers may already be gone, and such a write must fail
    that one session with [EPIPE], never kill the process.
    @raise Unix.Unix_error if the port is taken. *)

val port : t -> int
(** The actually bound port. *)

val serve :
  t ->
  max_conns:int ->
  drain_timeout:float ->
  on_shed:(unit -> unit) ->
  on_error:(exn -> unit) ->
  (Unix.file_descr -> unit) ->
  unit
(** [serve t ~max_conns ~drain_timeout ~on_shed ~on_error session] runs
    the accept loop until {!stop}. Each admitted connection runs
    [session fd] in its own thread; at most [max_conns] run at once,
    and every connection past that is refused ([on_shed] is called once
    for each). When [session] raises, [Out_of_memory], [Stack_overflow]
    and [Assert_failure] are re-raised; any other exception is handed
    to [on_error]. On stop, shuts down every session socket's receive
    side (its reads see EOF, its replies still go out), waits up to
    [drain_timeout] seconds for running sessions (logging a warning, src
    ["aqv.listener"], for any still active), then closes the listening
    socket and returns. *)

val stop : t -> unit
(** Idempotent, signal-safe: the first call flips the stop flag and
    wakes the accept loop through its self-pipe; later calls do
    nothing. Takes no lock, so a signal handler may call it. *)

val stopped : t -> bool
