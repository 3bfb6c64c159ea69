(** Epoch-aware read router: one TCP front door over N verifiable
    replicas.

    The router never decodes (let alone re-signs) what it forwards —
    request bytes go to a replica verbatim and the replica's reply
    bytes come back verbatim, so the client's verification of the
    owner's signatures spans the router unchanged; a byzantine router
    can deny service but never forge an accepted answer.

    Routing is epoch-minimum: a background poller asks each replica for
    its ["epoch"] stats gauge; requests go round-robin among the
    replicas at the best known epoch, never to one behind it (a lagging
    follower would serve an older — still correctly signed — epoch that
    clients pinned with [with_min_epoch] must reject). A replica that
    fails a roundtrip is marked down until a poll succeeds again; on
    transport failure the router retries the next candidate, and a
    served [Refused] is only returned if every candidate refuses. *)

type t

val create :
  ?poll_interval:float ->
  ?port:int ->
  replicas:(Unix.inet_addr * int) list ->
  unit ->
  t
(** Binds (port 0 picks an ephemeral one), polls every replica once
    synchronously, then starts the poller ([poll_interval] default
    0.5 s). Like the engine, it runs on an [Aqv_serve.Listener], so it
    ignores SIGPIPE process-wide. A client session idle for 10 s is
    closed.
    @raise Invalid_argument on an empty replica list. *)

val serve : t -> unit
(** Accept loop ([Aqv_serve.Listener.serve]); blocks until {!stop}.
    At most 64 client sessions run at once, the engine's default bound:
    a connection past it gets [Refused "overloaded"] and a close. A
    session that fails is logged (src ["aqv.cluster.router"], info) and
    closed. On stop, waits up to 5 s for running sessions, closes the
    listening socket, and joins the poller. *)

val stop : t -> unit
(** Idempotent, signal-safe. *)

val port : t -> int

val poll_now : t -> unit
(** Refresh every replica's epoch synchronously (tests, and anyone who
    cannot wait for the next poll tick). *)

val counts : t -> (string * int) list
(** Per-replica ["host:port" -> replies forwarded] tallies. *)

val epochs : t -> int list
(** Last known epoch per replica, in [replicas] order; -1 = down. *)
