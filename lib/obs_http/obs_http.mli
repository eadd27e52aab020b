(** A minimal stdlib-Unix HTTP listener for the live endpoints
    ([/metrics], [/health]).

    One background accept thread, sequential GET handling, every response
    [Connection: close]. This is a scrape target, not a web server: bodies
    are never read, non-GET methods get a 405, unroutable paths a 404.

    The routing handler runs on the accept thread; guard shared mutable
    state (the live registry) with [Obs.Monitor.locked] inside it. *)

type response = { status : int; content_type : string; body : string }

type t

val start : ?addr:string -> port:int -> (string -> response option) -> t
(** Binds [addr] (default ["127.0.0.1"]) on [port] (0 picks an ephemeral
    port — see {!port}) and starts the accept thread. The callback maps a
    request path (query string already stripped) to a response; [None]
    renders a 404. Raises [Unix.Unix_error] when the bind fails (port in
    use, privileged port). *)

val port : t -> int
(** The actually bound port (useful with [port:0]). *)

val stop : t -> unit
(** Closes the listening socket and joins the accept thread. Idempotent. *)
