(** Baseline (c): the traditional System R DAG protocol applied naively to
    non-disjoint complex objects (§3.2.2).

    Two straightforward applications, each with one of the paper's
    protocol-oriented problems:

    - {!plan_exclusive_all_parents} keeps the DAG rule "before requesting an
      X/IX lock on a node, all parent nodes must be IX locked". On shared
      data this means enumerating every referencing node — expensive without
      backward pointers — and locking a chain for each
      ({!parent_enumeration_visits} models the scan cost).
    - {!plan_hierarchical_naive} drops that rule and uses plain hierarchical
      locking along the access path only. It is cheap but *wrong*: implicit
      locks on common data held via one path are invisible from other paths;
      {!hidden_conflicts} detects the resulting anomalies. *)

val parent_enumeration_visits : Colock.Instance_graph.t -> int
(** Cost (nodes scanned) of determining all referencing nodes of a shared
    object without backward pointers: the size of the outer unit, i.e. all
    non-shared data. *)

val plan_exclusive_all_parents :
  Colock.Instance_graph.t -> oid:Nf2.Oid.t -> Technique.request list
(** X on a shared complex object under the strict DAG rule: for every
    referencing node, IX on its full ancestor chain and itself; IX on the
    object's own parent chain; then X on the object. *)

val plan_hierarchical_naive :
  Colock.Instance_graph.t -> Colock.Instance_graph.node -> Lockmgr.Lock_mode.t ->
  Technique.request list
(** Intentions along the solid ancestor chain, the mode on the node — and no
    propagation whatsoever. *)

type hidden_conflict = {
  at : Colock.Node_id.t;  (** the common-data node both believe they own *)
  writer : Lockmgr.Lock_table.txn_id;
  other : Lockmgr.Lock_table.txn_id;
}

val hidden_conflicts :
  ?rights:Authz.Rights.t -> Colock.Instance_graph.t -> Lockmgr.Lock_table.t ->
  txns:Lockmgr.Lock_table.txn_id list -> hidden_conflict list
(** Ground-truth audit over transactions that *completed* their lock phase: a
    transaction's *DAG-effective* coverage of a node follows solid edges and
    crosses dashed references (an X on a robot covers the effectors it
    references — weakened to S where [rights] say the library is not
    modifiable). Reported are node/transaction pairs where one
    transaction's write coverage meets another's read or write coverage
    while the lock table never saw a conflict. Empty under the paper's
    protocol; non-empty under {!plan_hierarchical_naive} access to shared
    data. Transactions still blocked mid-plan must be aborted (locks
    released) or excluded before auditing — they never reach their data. *)
