(** Run-time lock escalation and de-escalation.

    §4.5: on object-specific lock graphs, run-time escalations "cause immense
    overhead and increase highly the probability for deadlocks" — which is
    why the query-specific lock graph anticipates them. This module provides
    the run-time mechanism itself, so the E8 experiment can compare
    anticipated against unanticipated locking, and implements de-escalation,
    listed as future work in the paper's §5. *)

type escalation_result =
  | Escalated of {
      parent : Node_id.t;
      mode : Lockmgr.Lock_mode.t;
      released_children : int;
    }
  | Escalation_blocked of { blockers : Lockmgr.Lock_table.txn_id list }
  | Not_needed

val child_locks :
  Protocol.t -> txn:Lockmgr.Lock_table.txn_id -> parent:Instance_graph.node ->
  (Instance_graph.node * Lockmgr.Lock_mode.t) list
(** Direct children of [parent] on which the transaction holds explicit
    locks. *)

val maybe_escalate :
  Protocol.t -> txn:Lockmgr.Lock_table.txn_id -> threshold:int ->
  parent:Instance_graph.node -> escalation_result
(** When the transaction holds more than [threshold] explicit child locks
    under [parent], trades them for one lock on [parent] in the supremum of
    the children's data modes (S if only S children, X as soon as one child
    is X), then releases the child locks (they become implicit). Counted in
    the lock table's statistics. *)

val deescalate :
  Protocol.t -> txn:Lockmgr.Lock_table.txn_id -> Instance_graph.node ->
  keep:(Instance_graph.node * Lockmgr.Lock_mode.t) list ->
  (Lockmgr.Lock_table.grant list, Protocol.outcome) result
(** Future-work extension: replaces a coarse data lock on the node by
    explicit locks on the [keep] descendants, then downgrades the node to the
    matching intention mode, waking compatible waiters. Returns the grants
    produced by the downgrade, or the blocked outcome if a [keep] lock could
    not be acquired (the coarse lock is then left untouched). *)
