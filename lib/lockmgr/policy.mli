(** Pluggable resilience policies for the lock manager's clients.

    The paper's protocol says nothing about what happens when transactions
    collide badly; classical systems choose between waits-for {e detection}
    and lock-wait {e timeouts} (the trade-off contrasted by the altruistic-
    locking and data-contention literature in PAPERS.md). These types make
    the choice — plus victim selection and restart backoff — configuration
    of the transaction engine and the simulator, not hard-coded behaviour. *)

type resolution =
  | Detection  (** run cycle detection whenever a request starts waiting *)
  | Timeout of int
      (** abort any request still waiting after this many ticks; no cycle
          detection at all *)
  | Hybrid of int  (** detection on every wait {e and} the timeout backstop *)

type victim =
  | Youngest  (** largest begin timestamp dies (the classical default) *)
  | Oldest  (** smallest begin timestamp dies (wound-wait flavour) *)
  | Fewest_locks  (** cheapest to roll back by lock footprint *)
  | Least_work  (** least progress lost (fewest completed steps) *)

type backoff =
  | Fixed of int  (** constant restart delay *)
  | Exponential of { base : int; cap : int; seed : int }
      (** [base * 2^restarts] capped at [cap], with deterministic seeded
          full-jitter in [[raw/2, raw]] so colliding victims desynchronize
          reproducibly *)

type restart =
  | No_restart  (** waits run to resolution; no contention control *)
  | Wait_depth of int
      (** Thomasian's wait-depth-limited (WDL) policy: abort somebody as
          soon as a blocker chain exceeds this depth, keeping the blocking
          tree shallow under high contention *)
  | Running_priority
      (** waiting transactions never block a running one: a requester that
          would wait behind a waiter aborts that waiter instead *)

val default_timeout : int
(** Delay used when a resolution string names no explicit value. *)

val default_wait_depth : int
(** Depth used when a restart string names no explicit value (WDL(1)). *)

val timeout_of : resolution -> int option
(** The lock-wait deadline delta, when the strategy has one. *)

val detects : resolution -> bool
(** Whether the strategy runs cycle detection on waits. *)

type candidate = {
  txn : Lock_table.txn_id;
  birth : int;  (** begin timestamp — larger means younger *)
  locks_held : int;
  work_done : int;  (** completed steps, accesses, etc. *)
}

val choose_victim : victim -> candidate list -> Lock_table.txn_id
(** The cycle member sacrificed under the policy. Ties break toward the
    largest transaction id, so selection is deterministic. Raises
    [Invalid_argument] on an empty candidate list. *)

val delay : backoff -> restarts:int -> txn:Lock_table.txn_id -> int
(** Restart delay for the [restarts]-th restart of [txn]. Pure: the jitter
    is a hash of (seed, txn, restarts). *)

val resolution_of_string : string -> (resolution, string) result
(** Accepts ["detection"], ["timeout"], ["timeout:N"], ["hybrid"],
    ["hybrid:N"]. *)

val resolution_to_string : resolution -> string

val victim_of_string : string -> (victim, string) result
(** Accepts ["youngest"], ["oldest"], ["fewest-locks"], ["least-work"]. *)

val victim_to_string : victim -> string

val backoff_of_string : string -> (backoff, string) result
(** Accepts ["fixed:N"] and ["exp:BASE:CAP[:SEED]"]. *)

val backoff_to_string : backoff -> string

val restart_of_string : string -> (restart, string) result
(** Accepts ["none"], ["wdl"], ["wdl:D"] and ["running-priority"]. *)

val restart_to_string : restart -> string
val pp_resolution : Format.formatter -> resolution -> unit
val pp_victim : Format.formatter -> victim -> unit
val pp_backoff : Format.formatter -> backoff -> unit
val pp_restart : Format.formatter -> restart -> unit
