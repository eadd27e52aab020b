(** Instance-level lock graphs: the concrete lockable units of one database.

    Where {!Object_graph} is the schema-level graph of Fig. 5, this is the
    graph actual locks are requested on (the nodes of the paper's Figs. 6/7:
    "Database db1", "cell c1", the list "robots", "robot r1", "effector e1",
    ...). Every node except the database root has exactly one *immediate
    parent* (solid line); references to common data are separate dashed edges
    ([refs_out]), mirrored in a reverse index ([referencers]). Complex
    objects of shared relations are *entry points* — the roots of inner
    units. *)

type node = private {
  id : Node_id.t;
  index : int;
      (** dense id, unique among the graph's live nodes; ids of deleted
          nodes are reused *)
  resource : string;  (** [Node_id.to_resource id], computed once *)
  kind : Lockable.kind;
  parent_index : int;  (** dense id of the immediate parent; [-1] on the root *)
  mutable children : Node_id.t list;  (** solid edges, deterministic order *)
  refs_out : Nf2.Oid.t list;  (** dashed edges carried by this node (BLUs) *)
  entry_point : bool;
  relation : string option;  (** owning relation, for relation/object nodes *)
  oid : Nf2.Oid.t option;  (** for complex-object nodes *)
  mutable below : below;
}
(** A compiled node. The record is read-only outside this module. *)

and below
(** The node's memoised {!entry_points_below}. *)

type t

val build : Nf2.Database.t -> t
(** Materializes the full graph, compiled: every node gets a dense id, its
    resource string and its parent's dense id, so lock plans follow int
    links and hand the lock table stored strings. Entry-point closures are
    left to be filled lazily. Value updates in place need no rebuild;
    object insertion/deletion is supported incrementally through
    {!insert_object} and {!delete_object}; other structural changes (adding
    members to a collection, re-pointing references) need a rebuild. *)

val insert_object :
  t -> Nf2.Catalog.t -> Nf2.Schema.relation -> key:string -> Nf2.Value.t ->
  (Node_id.t, string) result
(** Splices a freshly inserted complex object under its relation node:
    builds its subtree, registers indexes and referencers, and invalidates
    the entry-point memo. Costs the new subtree plus one sorted insertion
    into the relation's children and into each referencer list it touches;
    the result equals a fresh {!build} of the database. The value must
    already be in the database (typechecked). Errors on unknown relation
    node or duplicate key. *)

val delete_object : t -> Nf2.Oid.t -> (unit, string) result
(** Removes the object's subtree, indexes and referencer entries, and
    invalidates the entry-point memo; the inverse of {!insert_object}, at
    the same cost. Errors if the object is unknown or still referenced by
    other objects (deleting it would dangle). *)

val root : t -> Node_id.t
(** The database node. *)

val node : t -> Node_id.t -> node option
val node_exn : t -> Node_id.t -> node
val node_count : t -> int
val segment_node : t -> string -> Node_id.t option
val relation_node : t -> string -> Node_id.t option
val object_node : t -> Nf2.Oid.t -> Node_id.t option

val member_node : t -> Node_id.t -> string -> Node_id.t option
(** Child of a HoLU by member name (e.g. the list "robots" and ["r1"]). *)

val referencers : t -> Nf2.Oid.t -> Node_id.t list
(** All BLU nodes holding a reference to the given complex object — the
    paper's expensive "determine all parents" set, here precomputed so both
    the naive baseline cost model and the entry-point precondition can use
    it. *)

val ancestors : t -> Node_id.t -> Node_id.t list
(** Immediate-parent chain, root first, the node itself excluded. *)

val parent_node : t -> node -> node option
(** The immediate parent, by dense id; [None] on the root. *)

val ancestor_nodes : t -> node -> node list
(** {!ancestors} on compiled nodes: follows dense parent ids. *)

val entry_points_below : t -> node -> node list
(** Entry points of the inner units accessible from the node via exactly
    one dashed hop: the complex objects referenced from the node's
    unit-local subtree (solid edges, not descending into other entry
    points), in {!Nf2.Oid.compare} order. Computed on first use and
    memoised on the node until the next {!insert_object} or
    {!delete_object}. *)

val subtree_refs : t -> Node_id.t -> Nf2.Oid.t list
(** Every reference carried by the subtree rooted at the node (the node
    included), deduplicated, in deterministic order. Used by downward
    propagation: these are the entry points "accessible via" the node at one
    dashed hop. *)

val subtree_size : t -> Node_id.t -> int
(** Number of nodes in the subtree (the node included). *)

val nodes_at_path :
  t -> Nf2.Oid.t -> Nf2.Path.t -> Node_id.t list
(** Instance nodes covering the attribute [path] of the given complex object,
    fanning out over collection members; [Path.root] is the object node
    itself. *)

val lu_of_resource : t -> string -> Obs.Event.lu option
(** Lockable-unit metadata (granule kind as ["BLU"]/["HoLU"]/["HeLU"], plus
    depth in the instance graph) for a resource string produced by
    {!Node_id.to_resource}; [None] for resources outside this graph. One
    hash probe; the lock table calls it only for events it emits. *)

val lu_resolver : t -> string -> Obs.Event.lu option
(** {!lu_of_resource} pre-applied, in the shape
    {!Lockmgr.Lock_table.set_meta} expects. *)

val fold : (node -> 'accu -> 'accu) -> t -> 'accu -> 'accu
(** Over all nodes in no particular order. *)
