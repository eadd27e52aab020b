(** The lock protocol for disjoint and non-disjoint complex objects
    (paper §4.4.2, rules 1–5 and the authorization-aware rule 4′).

    A request for mode [M] on node [n] expands into a deterministic *plan*:

    + intention locks ([intention_for M]) on the immediate-parent chain of
      [n], root-to-leaf (rules 1–4 preconditions; for entry points this is
      the "implicit upward propagation" within the superunit);
    + the explicit [M] lock on [n];
    + for S/X (and the S part of SIX) requests, "implicit downward
      propagation": an explicit data lock on the entry point of every inner
      unit accessible via [n] — transitively, since common data may again
      contain common data — each preceded by its own upward propagation.
      Under rule 4 the propagated mode is [M]; under rule 4′ an X weakens to
      S on inner units the transaction has no right to modify.

    Plans are acquired in order through the generic lock table; a conflict
    leaves the transaction waiting on the blocking node with the plan prefix
    already granted (re-calling {!acquire} after the grant resumes where it
    stopped, since covered locks grant immediately). Locks are released at
    end of transaction, or leaf-to-root via {!release_node} (rule 5). *)

type rule = Rule_4 | Rule_4_prime

type t

val create :
  ?rule:rule -> ?rights:Authz.Rights.t ->
  Instance_graph.t -> Lockmgr.Lock_table.t -> t
(** Default rule is [Rule_4_prime] with all-modifiable rights, which
    coincides with rule 4 until rights are restricted. The protocol emits
    into the lock table's sink (if any), so attaching observability at the
    table level covers the whole stack. *)

val graph : t -> Instance_graph.t
val table : t -> Lockmgr.Lock_table.t
val rights : t -> Authz.Rights.t
val rule : t -> rule

val emit : t -> Obs.Event.kind -> unit
(** Emits an event through the table's sink; no-op when none. Used by the
    escalation manager and higher layers sharing this protocol instance. *)

type reason =
  | Requested
  | Ancestor_intention  (** rules 1–4: parent-chain intention locks *)
  | Upward_propagation  (** superunit parents of a propagated entry point *)
  | Downward_propagation  (** entry points of dependent inner units *)

type step = {
  node : Node_id.t;
  mode : Lockmgr.Lock_mode.t;
  reason : reason;
  resource : string;
      (** the node's {!Instance_graph.resource}: the lock-table key,
          rendered once and kept by the graph *)
}

val plan_node :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?follow_references:bool ->
  Instance_graph.node -> Lockmgr.Lock_mode.t -> step list
(** The full, ordered lock plan for the request (independent of what is
    already held; acquisition of covered steps is a no-op). Parents always
    precede descendants; duplicate nodes are merged with the supremum of
    their modes at the earliest position. Follows the graph's dense parent
    ids and memoised entry points, so no step is re-derived from the
    subtree and no path is resolved.

    [follow_references] (default [true]) is the §4.5 semantic refinement:
    when a query provably never accesses the referenced common data (e.g.
    deleting a robot without touching its effectors), downward propagation
    can be skipped entirely — "no locks on common data are necessary at
    all". Only disable it when the access really is reference-blind. *)

val plan :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?follow_references:bool ->
  Node_id.t -> Lockmgr.Lock_mode.t -> step list
(** {!plan_node} on the node at the given path, resolved once by
    {!Instance_graph.node_exn}. *)

type outcome =
  | Acquired of step list  (** every step granted; the merged plan returned *)
  | Blocked of {
      step : step;  (** the step that could not be granted *)
      blockers : Lockmgr.Lock_table.txn_id list;
      acquired : step list;  (** plan prefix already granted *)
    }

val acquire :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?wait:bool ->
  ?duration:Lockmgr.Lock_table.duration -> ?follow_references:bool ->
  Instance_graph.node -> Lockmgr.Lock_mode.t -> outcome
(** Executes the plan of {!plan_node}, each step through {!Lockmgr.Lock_table.request}. On
    [Blocked] with [?wait] (default [true]) the transaction is enqueued in
    the lock table on the blocking node; re-call after the blocker releases.
    With [~wait:false] nothing is enqueued: the plan prefix stays granted, so
    release it or retry. *)

type protocol_violation =
  | Parent_not_locked of {
      node : Node_id.t;
      parent : Node_id.t;
      needed : Lockmgr.Lock_mode.t;
      held : Lockmgr.Lock_mode.t;
    }
  | Entry_point_not_reached of {
      entry : Node_id.t;
      needed : Lockmgr.Lock_mode.t;
    }
      (** no referencing node (nor the parent relation) is appropriately
          locked *)

val pp_protocol_violation : Format.formatter -> protocol_violation -> unit

val request_explicit :
  t -> txn:Lockmgr.Lock_table.txn_id -> ?duration:Lockmgr.Lock_table.duration ->
  Instance_graph.node -> Lockmgr.Lock_mode.t ->
  (outcome, protocol_violation) result
(** The paper's *explicit* request: checks the rule 1–4 preconditions (the
    caller must have locked the parent chain / a referencing node first)
    instead of acquiring them, then performs only the request plus its two
    implicit propagations. Used to verify the protocol rules themselves; the
    high-level {!acquire} is what query execution uses. *)

val effective_mode :
  t -> txn:Lockmgr.Lock_table.txn_id -> Instance_graph.node ->
  Lockmgr.Lock_mode.t
(** Explicit mode on the node combined with the implicit mode inherited along
    solid lines: X if an ancestor is explicitly X, else S if an ancestor is
    explicitly S or SIX (§3.1; with single immediate parents "all parents"
    and "at least one parent" coincide). *)

val release_node :
  t -> txn:Lockmgr.Lock_table.txn_id -> Instance_graph.node ->
  Lockmgr.Lock_table.grant list
(** Leaf-to-root release of one lock (rule 5). *)

val end_of_transaction :
  t -> txn:Lockmgr.Lock_table.txn_id -> Lockmgr.Lock_table.grant list
(** Releases everything (rule 5: "at EOT in any order") and forgets the
    transaction's authorization entries. *)

val commit_keeping_long_locks :
  t -> txn:Lockmgr.Lock_table.txn_id -> Lockmgr.Lock_table.grant list
(** Releases only short locks — the check-out commit of §3.1. *)

val pp_step : Format.formatter -> step -> unit
