(** Abort-storm circuit breaker.

    Watches the commit/abort outcome stream and, when the abort fraction of
    a sufficiently large sample crosses a threshold, opens: restarts are
    deferred rather than re-queued immediately, so a contention collapse
    cannot amplify itself through its own retries. After [open_for] ticks
    the breaker half-opens and lets a few probe restarts through; if they
    commit it closes again, if any aborts it re-opens. Deterministic —
    callers supply [now]. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type config = {
  failure_rate : float;  (** abort fraction that trips the breaker *)
  min_events : int;  (** sample size before the rate is trusted *)
  open_for : int;  (** ticks spent open before probing *)
  probes : int;  (** consecutive probe commits needed to close *)
}

val default_config : config
(** [failure_rate 0.8, min_events 16, open_for 200, probes 3]. *)

val config_of_string : string -> (config, string) result
(** ["RATE:OPEN"] or ["RATE:OPEN:PROBES"]. *)

val validate : config -> string list

type t

val create : config -> t
val state : t -> state
val config : t -> config

val record_commit : t -> now:int -> unit
val record_abort : t -> now:int -> unit
(** Feed the outcome stream. Aborts may trip Closed→Open and always knock
    Half_open back to Open. *)

val allow : t -> now:int -> bool
(** May a restart proceed right now? Closed: yes. Open: no, unless
    [open_for] has elapsed — in which case the breaker transitions to
    Half_open and admits the caller as a probe. Half_open: yes while probe
    slots remain. *)

val reopen_at : t -> int option
(** When Open, the tick at which {!allow} will start probing — lets a
    deterministic scheduler park a restart instead of polling. *)
