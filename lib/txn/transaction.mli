(** Transactions: the paper's §1 notion (degree-3 consistency, strict
    two-phase locking), in short and long ("conversational") flavours. *)

type kind =
  | Short  (** conventional transaction in the central database *)
  | Long  (** workstation check-out transaction: locks survive shutdowns *)

type abort_reason =
  | Deadlock_victim
  | Timeout_victim  (** a lock wait exceeded the manager's timeout *)
  | Contention_victim
      (** restarted by a contention policy (wait-depth limit, running
          priority) the moment somebody started waiting *)
  | User_abort

type wait = {
  resource : string;  (** where the request is queued *)
  since : int;  (** clock reading when the wait began *)
  epoch : int;  (** unique per engine: tells successive waits apart *)
}
(** The one record of a lock wait; timeouts are read from it. *)

type status =
  | Active
  | Waiting of wait
  | Committed
  | Aborted of abort_reason

type t = {
  id : Lockmgr.Lock_table.txn_id;
  kind : kind;
  started_at : int;
      (** birth, larger is younger: the clock at begin (the simulator: the
          job's arrival) *)
  mutable status : status;
  mutable restarts : int;
      (** times the engine sacrificed it; the simulator restarts under the
          same id *)
  mutable work : int;
      (** completed units of work, advanced by the client: simulator steps,
          granted acquisitions, session statements *)
}

val make : ?kind:kind -> id:Lockmgr.Lock_table.txn_id -> birth:int -> unit -> t
(** [Active], no restarts, no work. *)

val is_finished : t -> bool
val is_waiting : t -> bool
