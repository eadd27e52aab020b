(** Shared vocabulary of the baseline lock techniques the paper compares
    against (§3): lock plans as explicit request lists, plus an executor that
    plays a plan against a lock table. *)

type request = {
  node : Colock.Node_id.t;
  mode : Lockmgr.Lock_mode.t;
  resource : string;
      (** the lock-table key: the node's {!Colock.Instance_graph.resource} *)
}

val of_step : Colock.Protocol.step -> request
(** A proposed-protocol plan step as a request. *)

type outcome =
  | Acquired of int  (** number of requests issued *)
  | Blocked of {
      request : request;
      blockers : Lockmgr.Lock_table.txn_id list;
    }

val acquire :
  Lockmgr.Lock_table.t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool ->
  request list -> outcome
(** Issues the requests in order through {!Lockmgr.Lock_table.request},
    passing [?wait] on: waiting (the default), a conflict leaves the
    transaction queued on the failing node; otherwise nothing is queued. *)

val with_ancestors :
  Colock.Instance_graph.t -> Colock.Instance_graph.node ->
  Lockmgr.Lock_mode.t -> (Colock.Instance_graph.node * Lockmgr.Lock_mode.t) list
(** The System R chain: intention locks on all ancestors (root first), then
    the node in the given mode. *)

val merge :
  Colock.Instance_graph.t ->
  (Colock.Instance_graph.node * Lockmgr.Lock_mode.t) list -> request list
(** Deduplicates by node (dense id), merging modes with the supremum and
    keeping first positions (parents stay before children), and renders
    each lock as a request. *)
