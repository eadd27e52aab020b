(** The typed event taxonomy of the observability layer.

    Every layer of the system — the lock table, the protocol, the
    transaction manager, query execution and the simulator — emits these
    through a {!Sink}. Lock modes travel as plain strings so the library
    sits below [Lockmgr] in the build order. Times are in whatever unit the
    emitting sink's clock uses: the discrete-event simulator stamps virtual
    ticks; wall-clock users stamp seconds. *)

type lu = { lu_kind : string; lu_depth : int }
(** Lockable-unit annotation for a resource: the granule kind from the
    object-specific lock graph (["BLU"], ["HoLU"], ["HeLU"], or a
    technique-specific label such as ["object"]/["tuple"] for the
    baselines) and the resource's depth in the instance graph. Carried as
    an option on every resource-bearing lock event; [None] means the
    emitter had no graph metadata for that resource. *)

type holder = { h_txn : int; h_mode : string; h_lu : lu option }
(** One member of the granted group that blocked a request: the holding
    transaction, the mode it held when the request queued, and its
    lockable-unit annotation. The causal half of a wait — [blockers] says
    who, [holders] additionally says with what, so blame attribution can
    map each blocked tick onto the paper's compatibility matrix. *)

type kind =
  | Lock_requested of {
      txn : int;
      resource : string;
      mode : string;
      lu : lu option;
    }
  | Lock_granted of {
      txn : int;
      resource : string;
      mode : string;
      immediate : bool;  (** [false]: served from the wait queue *)
      lu : lu option;
      holders : holder list;
          (** for queue-served grants: the granted group the request was
              blocked on while queued; [[]] on immediate grants *)
    }
  | Lock_waited of {
      txn : int;
      resource : string;
      mode : string;
      blockers : int list;
      lu : lu option;
      holders : holder list;
          (** the incompatible granted group at enqueue time (txn, held
              mode, LU kind); [[]] when the wait is due to the FIFO queue
              rule alone *)
    }
  | Lock_released of { txn : int; resource : string; lu : lu option }
  | Conversion of {
      txn : int;
      resource : string;
      from_mode : string;
      to_mode : string;
      lu : lu option;
    }
  | Escalation of {
      txn : int;
      node : string;
      mode : string;
      released_children : int;
    }
  | Deescalation of { txn : int; node : string; mode : string }
  | Deadlock_detected of { cycle : int list }
  | Victim_aborted of { txn : int; restarts : int }
  | Timeout_abort of {
      txn : int;
      resource : string;
      waited : int;
      lu : lu option;
    }
      (** a lock wait exceeded its deadline and the waiter was aborted *)
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Query_executed of {
      txn : int;
      query : string;
      rows : int;
      locks_requested : int;
    }
  | Sim_step of { txn : int; step : int }
  | Waits_for of { edges : (int * int) list }
      (** periodic snapshot of the wait-for graph: [(waiter, blocker)]
          edges at the event's timestamp *)
  | Run_meta of { label : string }
      (** stream delimiter: everything after it (until the next [Run_meta])
          belongs to the labelled run, letting one JSONL file carry several
          techniques' captures *)
  | Slo_breach of { rule : string; value : float; threshold : float }
      (** a declarative service-level objective (see [Slo]) was violated in
          the window that just closed: [rule] is the rule's source text,
          [value] the measured signal, [threshold] the bound it crossed *)
  | Admission of { txn : int; priority : string; decision : string }
      (** the admission gate deferred or refused a transaction: [decision]
          is ["queued"] or ["shed"] (admissions are silent — they are the
          common case). [priority] is the workload class
          (high/normal/low). *)
  | Admission_limit of {
      limit : int;
      inflight : int;
      queued : int;
      shed : int;
    }
      (** the AIMD controller moved the concurrency limit; the remaining
          fields snapshot the limiter so dashboards can plot the loop *)
  | Breaker of { from_state : string; to_state : string }
      (** the abort-storm circuit breaker changed state
          (closed/open/half-open) *)
  | Retry_denied of { txn : int; restarts : int }
      (** the retry budget was empty: the transaction gives up instead of
          restarting a [restarts+1]-th time *)
  | Contention_abort of { txn : int; policy : string; depth : int }
      (** a restart policy (["wdl:D"] or ["running-priority"]) aborted
          [txn] to keep the blocking tree shallow; [depth] is the observed
          wait depth that triggered it *)

type t = { time : float; kind : kind }

val name : kind -> string
(** Stable snake_case tag, e.g. ["lock_granted"] — the JSONL ["event"] field
    and the metric-counter suffix. *)

val txn : kind -> int option
(** The transaction an event belongs to ([None] for whole-system events). *)

val lu_of : kind -> lu option
(** The lockable-unit annotation, for the six resource-bearing lock events;
    [None] everywhere else. *)

val resource_of : kind -> string option
(** The resource (or escalation node) an event refers to, when any. *)

val add_line : Buffer.t -> t -> unit
(** Appends the event's JSONL line, newline included: one JSON object
    whose fields are [event], [time], then the kind's own payload. Keys
    are constant text and values go through {!Json}'s appenders, so no
    {!Json.t} is built; the bytes are what {!Json.add} writes for the same
    fields. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!add_line}: decodes one parsed trace line back into a
    typed event, accepting exactly the field layout the writer produces. *)
