(** An event sink: a clock plus a list of pluggable handlers.

    Instrumented components take an optional sink ([?obs]); with no sink (or
    no handlers) emission short-circuits to a list-match, so un-instrumented
    runs pay nothing and stay byte-for-byte deterministic.

    The clock stamps events at emission time. It is mutable on purpose: the
    discrete-event simulator re-points it at the virtual clock of the run,
    so events emitted deep inside the lock table carry simulation ticks
    rather than wall time.

    Every sink counts the events it emitted and the bytes that JSONL
    handlers wired to its {!meter} wrote, so a run's trace volume can be
    measured. *)

type meter = {
  mutable m_emitted : int;  (** events fanned out to at least one handler *)
  mutable m_bytes : int;  (** bytes written by handlers that report here *)
}

type t

val create : ?clock:(unit -> float) -> (Event.t -> unit) list -> t
(** Default clock is the constant 0 (callers that care pass their own, e.g.
    [Unix.gettimeofday]). *)

val attach : t -> (Event.t -> unit) -> unit
val set_clock : t -> (unit -> float) -> unit

val meter : t -> meter
(** The sink's own accounting cell — pass it to [Jsonl.handler] so the
    bytes it writes land here. *)

val emit_count : t -> int
(** Events emitted through this sink (emissions with no handlers attached
    are not counted — they never left the caller). *)

val bytes_written : t -> int
(** Bytes reported to the {!meter} by writing handlers. *)

val emit : t -> Event.kind -> unit
(** Stamps the event with the sink's clock and fans out to every handler. *)

val emit_at : t -> time:float -> Event.kind -> unit
(** Like {!emit} with an explicit timestamp. *)

val filter : (Event.t -> bool) -> (Event.t -> unit) -> Event.t -> unit
(** [filter keep handler] wraps a handler so it only sees events where
    [keep] holds — e.g. drop [Sim_step] noise before a capture or JSONL
    sink floods on a long soak. *)

val not_sim_step : Event.t -> bool
(** Predicate for {!filter}: everything but [Sim_step]. *)

val memory :
  ?clock:(unit -> float) -> ?keep:(Event.t -> bool) -> unit ->
  t * (unit -> Event.t list)
(** A sink that captures the whole run in memory, with no bound: the
    function returns every event captured so far, in emission order.
    [?keep] filters what is captured (see {!filter}); everything still
    reaches handlers attached later with {!attach}. *)
