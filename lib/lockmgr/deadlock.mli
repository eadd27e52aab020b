(** Deadlock detection on the waits-for graph.

    Locking techniques detect conflicts "usually when the corresponding data
    are accessed" (§1); blocked transactions can then form waits-for cycles,
    which {!resolve} breaks by aborting victims for the transaction engine
    ([Txn.Txn_manager]). *)

val find_cycle :
  edges:(Lock_table.txn_id * Lock_table.txn_id) list ->
  Lock_table.txn_id list option
(** Some cycle [t1; t2; ...; tn] with [t1] waiting for [t2], ..., [tn] waiting
    for [t1]; [None] when the graph is acyclic. Deterministic: the cycle
    reachable from the smallest transaction id is returned. *)

val resolve :
  Lock_table.t -> obs:Obs.Sink.t option -> victim:Policy.victim ->
  candidate:(Lock_table.txn_id -> Policy.candidate) ->
  abort:(Lock_table.txn_id -> unit) -> requester:Lock_table.txn_id -> bool
(** The one deadlock resolver, run after [requester] started waiting. While
    the waits-for graph has a cycle it counts it in {!Lock_stats.deadlocks},
    emits [Deadlock_detected] through [obs], picks the victim among the
    cycle's [candidate] facts by {!Policy.choose_victim} and runs [abort] on
    it. [abort] must withdraw the victim's queued requests (and, as every
    caller does, release its locks), or the same cycle is found again. The
    loop stops when the graph is acyclic or [requester] was the victim, and
    returns [true] in the second case. *)
