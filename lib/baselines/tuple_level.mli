(** Baseline (b): locking each single tuple individually (§3.2.1).

    The opposite strawman: the basic elements of complex objects — the leaf
    tuples — are locked one by one. Fine-grained, so concurrent, but "one
    cell may contain hundreds of c_objects", so the lock count explodes, and
    references still have to be chased to lock the shared tuples they point
    to (the common data are locked at tuple level too). *)

val leaf_tuples :
  Colock.Instance_graph.t -> Colock.Instance_graph.node ->
  Colock.Instance_graph.node list
(** The leaf tuples of the subtree: HeLU nodes without HeLU descendants, plus
    BLUs not covered by any leaf tuple (attributes of interior tuples,
    members of collections of atomics). For a flat tuple node the node
    itself. *)

val plan_node :
  Colock.Instance_graph.t -> Colock.Instance_graph.node -> Lockmgr.Lock_mode.t ->
  Technique.request list
(** Locks every leaf tuple under the given instance node (intention chains
    above), then chases references out of the subtree and locks the
    referenced objects' leaf tuples the same way, transitively. *)

val plan :
  Colock.Instance_graph.t -> oid:Nf2.Oid.t -> ?target:Nf2.Path.t ->
  Lockmgr.Lock_mode.t -> Technique.request list
(** Locks every leaf tuple under the target path of the object (default: the
    whole object), with intention chains above, then chases references and
    locks the referenced objects' leaf tuples the same way. *)

val lock_count :
  Colock.Instance_graph.t -> oid:Nf2.Oid.t -> ?target:Nf2.Path.t ->
  Lockmgr.Lock_mode.t -> int
