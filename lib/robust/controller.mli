(** The deciding half of the admission closed loop. Every [every] ticks the
    caller reads what it sensed itself (lock-wait p95 and abort rate over
    its recent past, wait-queue depth now) and feeds the readings to
    {!step}; the controller compares them against its thresholds and moves
    the {!Admission} limit — multiplicative decrease when any signal
    breaches, additive increase when all are healthy. *)

type thresholds = {
  p95_wait : float;  (** lock-wait 95th percentile, virtual ticks *)
  abort_rate : float;  (** aborts / (commits + aborts) over the window *)
  queue_depth : int;  (** live lock-table waiter count *)
}

type config = { every : int;  (** control period, ticks *) thresholds : thresholds }

val default_config : config
(** [every 50; p95_wait 200.0; abort_rate 0.5; queue_depth 24]. *)

val validate : config -> string list

type verdict =
  | Unchanged
  | Raised of int  (** new limit after additive increase *)
  | Lowered of int  (** new limit after multiplicative decrease *)

val step :
  config ->
  Admission.t ->
  p95_wait:float ->
  abort_rate:float ->
  queue_depth:int ->
  verdict
(** Applies AIMD to the admission limiter and reports what changed. *)
