(** Client-side request path with timeouts, bounded retry, and backoff.

    Reads ([Run_query], [Run_rank], [Run_count], [Get_stats]) are
    idempotent against an immutable-per-epoch index, so {!call} may
    retry them on a fresh connection: transport-level failures
    (connection refused, reset, timeout, truncated reply, early EOF)
    are retried up to [attempts] times with exponential backoff, and
    served replies — including [Refused] — are returned as-is.
    [Republish] and [Subscribe] are not idempotent: send them once,
    with {!ask} on a connection from {!connect} or {!with_connection}. *)

type opts = {
  connect_timeout : float;  (** per-attempt connect(2) deadline, seconds *)
  read_timeout : float;  (** per-reply read deadline, seconds *)
  attempts : int;  (** total tries, including the first *)
  backoff : float;  (** initial sleep between tries; doubles each retry *)
}

val default_opts : opts
(** 1 s connect, 5 s read, 8 attempts, 50 ms initial backoff (so a
    server still binding its socket is found well within a second). *)

val transient : exn -> bool
(** The retry classifier: true for transport-level failures worth
    another attempt (refused/reset/timeout/early EOF), false for
    everything else. *)

val connect : ?opts:opts -> ?host:Unix.inet_addr -> int -> Unix.file_descr
(** [connect port] dials [host]:[port] ([host] defaults to 127.0.0.1),
    retrying until the server accepts (replaces the old sleep-and-hope
    startup dance). @raise Failure when every attempt failed. *)

val ask : ?opts:opts -> Unix.file_descr -> Aqv.Protocol.request -> Aqv.Protocol.reply
(** One request/reply on an open connection — no retries (a persistent
    session cannot resend safely without reframing); raises on
    transport errors. *)

val call :
  ?opts:opts -> ?host:Unix.inet_addr -> port:int -> Aqv.Protocol.request ->
  Aqv.Protocol.reply
(** Connect, ask, close — retrying the whole roundtrip on transport
    failure, so for reads only: a resent [Republish] that had already
    landed would be refused. @raise Failure when every attempt failed. *)

val with_connection :
  ?opts:opts -> ?host:Unix.inet_addr -> port:int -> (Unix.file_descr -> 'a) -> 'a
(** Persistent-connection scope; always closes the socket. *)
