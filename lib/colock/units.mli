(** Outer units, inner units, superunits and entry points (paper §4.4.1).

    The nodes of an object-specific lock graph partition into one *outer
    unit* (non-shared data from the relation node up to the database node and
    down to the first references into common data) and *inner units*, each
    rooted at an *entry point* — a complex object of a shared relation. A
    *superunit* is a unit plus the immediate parents of its root up to and
    including the database node. Units are always disjoint; superunits need
    not be. Both have hierarchical structure: every node except the database
    root has exactly one immediate parent. *)

val unit_root : Instance_graph.t -> Instance_graph.node -> Instance_graph.node
(** The root of the unit containing the node: the nearest
    ancestor-or-self entry point, or the database node when the node lies in
    the outer unit. *)

val in_outer_unit : Instance_graph.t -> Instance_graph.node -> bool

val unit_members :
  Instance_graph.t -> root:Instance_graph.node -> Instance_graph.node list
(** All nodes of the unit rooted at [root]: the solid subtree, not descending
    into entry points (which root units of their own). For the outer unit
    pass the database node; note that objects of shared relations hang off
    their relation node along solid lines, so the outer unit stops right
    above them. Deterministic order (preorder). *)

val superunit_parents :
  Instance_graph.t -> root:Instance_graph.node -> Instance_graph.node list
(** The immediate parents of a unit root up to and including the database
    node, root-first — the nodes "implicit upward propagation" must
    intention-lock. Empty for the database node itself. *)

val entry_points_below :
  Instance_graph.t -> Instance_graph.node -> Instance_graph.node list
(** Entry points of the inner units accessible from the node via exactly one
    dashed hop (refs carried by the node's unit-local subtree). Not
    transitive; the protocol's downward propagation iterates this. Memoised
    per node (see {!Instance_graph.entry_points_below}). *)

val pp_unit :
  Instance_graph.t -> Format.formatter -> Instance_graph.node -> unit
(** Renders the unit rooted at the given node, for diagnostics and the Fig. 6
    experiment. *)
