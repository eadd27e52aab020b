(** An event sink: a clock plus a list of pluggable handlers.

    Instrumented components take an optional sink ([?obs]); with no sink (or
    no handlers) emission short-circuits to a list-match, so un-instrumented
    runs pay nothing and stay byte-for-byte deterministic.

    The clock stamps events at emission time. It is mutable on purpose: the
    discrete-event simulator re-points it at the virtual clock of the run,
    so events emitted deep inside the lock table carry simulation ticks
    rather than wall time.

    Every sink self-accounts: events emitted, events dropped by its
    filter stages, bytes written by JSONL handlers wired to its
    {!meter}. [Monitor] surfaces these as [obs_*]
    meta-metrics, so the observability pipeline's own backpressure is never
    silent. *)

type meter = {
  mutable m_emitted : int;  (** events fanned out to at least one handler *)
  mutable m_dropped : int;  (** events a filter stage discarded *)
  mutable m_bytes : int;  (** bytes written by handlers that report here *)
}

type t

val create : ?clock:(unit -> float) -> (Event.t -> unit) list -> t
(** Default clock is the constant 0 (callers that care pass their own, e.g.
    [Unix.gettimeofday]). *)

val attach : t -> (Event.t -> unit) -> unit
val set_clock : t -> (unit -> float) -> unit

val meter : t -> meter
(** The sink's own accounting cell — pass it to {!filter} or
    [Jsonl.handler] so their drops and bytes land here. *)

val emit_count : t -> int
(** Events emitted through this sink (emissions with no handlers attached
    are not counted — they never left the caller). *)

val drop_count : t -> int
(** Events dropped before reaching a terminal handler: the filter
    discards recorded in the {!meter}. *)

val bytes_written : t -> int
(** Bytes reported to the {!meter} by writing handlers. *)

val emit : t -> Event.kind -> unit
(** Stamps the event with the sink's clock and fans out to every handler. *)

val emit_at : t -> time:float -> Event.kind -> unit
(** Like {!emit} with an explicit timestamp. *)

val filter :
  ?meter:meter -> (Event.t -> bool) -> (Event.t -> unit) -> Event.t -> unit
(** [filter keep handler] wraps a handler so it only sees events where
    [keep] holds — e.g. drop [Sim_step] noise before a capture or JSONL
    sink floods on a long soak. Discards are counted in [?meter] when given. *)

val not_sim_step : Event.t -> bool
(** Predicate for {!filter}: everything but [Sim_step]. *)

val memory :
  ?clock:(unit -> float) -> ?keep:(Event.t -> bool) -> unit ->
  t * (unit -> Event.t list)
(** A sink that captures the whole run in memory, with no bound: the
    function returns every event captured so far, in emission order.
    [?keep] filters what is captured (see {!filter}), and its discards show
    in the sink's {!drop_count}; everything still reaches handlers attached
    later with {!attach}. *)
