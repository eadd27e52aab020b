(** Adaptive admission control: an AIMD concurrency limit with a bounded,
    priority-classed entry queue and explicit load shedding.

    The limiter is the actuator of the overload-control closed loop
    (Thomasian's "Methods to Deal with High Data Contention", PAPERS.md):
    a {!Controller} watches live contention signals and moves the limit
    additively up / multiplicatively down; this module only enforces it.
    Everything is synchronous and deterministic — callers (the simulator,
    the transaction manager) own time and scheduling. *)

type priority =
  | High  (** long check-out sessions — the paper's design transactions *)
  | Normal  (** updates, including shared-library writes *)
  | Low  (** read-only work: first to queue, first to shed *)

val priority_to_string : priority -> string

type config = {
  initial : int;  (** concurrency limit at start *)
  min_limit : int;  (** the limit never drops below this *)
  max_limit : int;  (** … nor rises above this *)
  queue_capacity : int;  (** bounded entry queue, all classes together *)
  increase : int;  (** additive raise per healthy control period *)
  decrease : float;  (** multiplicative factor on overload, e.g. 0.5 *)
}

val default_config : config
(** [initial 8, min 1, max 64, queue 16, increase 1, decrease 0.5]. *)

val config_to_string : config -> string
(** ["INIT:MIN:MAX:QUEUE"] (increase/decrease stay at their defaults). *)

val config_of_string : string -> (config, string) result
(** Accepts ["INIT"], ["INIT:MIN:MAX"] and ["INIT:MIN:MAX:QUEUE"]. *)

val validate : config -> string list
(** Human-readable violations (empty means sound). *)

type t

type decision =
  | Admitted  (** a slot was free: the transaction may begin *)
  | Enqueued of { evicted : int option }
      (** no slot; the request queues. When queueing displaced a
          lower-priority entry to stay within capacity, [evicted] names the
          shed transaction — the caller must fail it. *)
  | Rejected  (** queue full of equal-or-higher priority work: shed *)

val create : config -> t
val config : t -> config

val limit : t -> int
val inflight : t -> int
val queued : t -> int
val shed_count : t -> int
(** Cumulative transactions shed ({!Rejected} plus evictions). *)

val set_limit : t -> int -> int
(** Clamps into [[min_limit, max_limit]] and returns the new limit.
    Lowering below the current in-flight count is allowed — excess drains
    as transactions finish. *)

val request : t -> priority:priority -> txn:int -> decision
(** Entry gate for transaction [txn]. *)

val release : t -> unit
(** A previously admitted transaction left the system (commit, abort for
    good, crash). Frees one slot; call {!pop} afterwards to promote queued
    work. *)

val pop : t -> int option
(** Highest-priority, oldest queued transaction, if a slot is free — the
    slot is taken (in-flight incremented) before returning. *)
