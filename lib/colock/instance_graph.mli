(** Instance-level lock graphs: the concrete lockable units of one database.

    Where {!Object_graph} is the schema-level graph of Fig. 5, this is the
    graph actual locks are requested on (the nodes of the paper's Figs. 6/7:
    "Database db1", "cell c1", the list "robots", "robot r1", "effector e1",
    ...). Every node except the database root has exactly one *immediate
    parent* (solid line); references to common data are separate dashed edges
    ([refs_out]), mirrored in a reverse index ({!referencers}). Complex
    objects of shared relations are *entry points* — the roots of inner
    units.

    Nodes are slim records filed by dense id and linked by dense id: a node
    holds its parent's id and its children's ids, never a path. Its
    {!Node_id.t} and resource string are rendered from its parent's on first
    use ({!id}, {!resource}) and kept, so a graph of 200k nodes carries
    strings only for the few thousand that were ever locked or printed. The
    layers above hold {!node} handles and follow the links; a path is
    resolved only where one comes in from outside ({!node}, {!object_node},
    {!lu_of_resource}). *)

type node = private {
  index : int;
      (** dense id, unique among the graph's live nodes; ids of deleted
          nodes are reused *)
  parent_index : int;  (** dense id of the immediate parent; [-1] on the root *)
  step : string;  (** the last step of the node's path *)
  kind : Lockable.kind;
  entry_point : bool;
  mutable children : int array;
      (** dense ids of the solid children, in build order (a relation's
          objects in key order); {!children} hands out the nodes *)
  refs_out : Nf2.Oid.t list;  (** dashed edges carried by this node (BLUs) *)
  relation : string option;  (** owning relation, for relation/object nodes *)
  oid : Nf2.Oid.t option;  (** for complex-object nodes *)
  mutable names : names;
  mutable below : below;
}
(** A node handle. The record is read-only outside this module. *)

and names
(** The node's memoised {!id} and {!resource}. *)

and below
(** The node's memoised {!entry_points_below}. *)

type t

val build : Nf2.Database.t -> t
(** Materializes the full graph: every node gets a dense id and its
    parent's, and each relation a key table of its objects. No path is
    rendered. After the build, {!Store} makes every change: it inserts and
    deletes objects incrementally ({!insert_object}, {!delete_object}) and
    replaces values without touching the graph, so other structural changes
    (adding members to a collection, re-pointing references) need a
    rebuild. *)

val insert_object :
  t -> Nf2.Catalog.t -> Nf2.Schema.relation -> key:string -> Nf2.Value.t ->
  (node, string) result
(** Splices a freshly inserted complex object under its relation node:
    builds its subtree, files its key and references, and invalidates the
    entry-point memo. Costs the new subtree plus one sorted insertion into
    the relation's children and into each referencer list it touches; the
    result equals a fresh {!build} of the database. The value must already
    be in the database (typechecked): {!Store.insert} calls this after the
    database insert. Errors on unknown relation node or duplicate key. *)

val delete_object : t -> Nf2.Oid.t -> (unit, string) result
(** Removes the object's subtree, key and referencer entries, and
    invalidates the entry-point memo; the inverse of {!insert_object}, at
    the same cost. Errors if the object is unknown or still referenced by
    other objects (deleting it would dangle). *)

val root : t -> node
(** The database node. *)

val id : t -> node -> Node_id.t
(** The node's path, rendered on first use and kept: the same physical
    value on every call, sharing its parent's. *)

val resource : t -> node -> string
(** [Node_id.to_resource (id graph node)]: the lock-table key, rendered
    from the parent's on first use and kept. *)

val depth : t -> node -> int
(** Number of steps: the database node has depth 1. Follows parent ids. *)

val node : t -> Node_id.t -> node option
(** Resolves a path by walking its steps from the root: the segment and
    the relation among their siblings, the object by one probe of its
    relation's key table, members and fields among the node's children.
    Costs one step per level, and a scan of the children below the
    object. *)

val node_exn : t -> Node_id.t -> node

val node_of_resource : t -> string -> node option
(** {!node} on a resource string, split by {!Obs.Resource.fold_steps} and
    walked in place, without building a {!Node_id.t}. *)

val node_count : t -> int
val segment_node : t -> string -> node option
val relation_node : t -> string -> node option

val object_node : t -> Nf2.Oid.t -> node option
(** One probe of the relation's key table. *)

val member_node : t -> node -> string -> node option
(** The child one step below, by name (e.g. the list "robots" and ["r1"]);
    a relation's object by its key table. *)

val children : t -> node -> node list
(** Solid children, in build order. *)

val referencers : t -> Nf2.Oid.t -> node list
(** All BLU nodes holding a reference to the given complex object, in path
    order — the paper's expensive "determine all parents" set, here
    precomputed so both the naive baseline cost model and the entry-point
    precondition can use it. *)

val parent_node : t -> node -> node option
(** The immediate parent, by dense id; [None] on the root. *)

val ancestor_nodes : t -> node -> node list
(** Immediate-parent chain, root first, the node itself excluded. *)

val entry_points_below : t -> node -> node list
(** Entry points of the inner units accessible from the node via exactly
    one dashed hop: the complex objects referenced from the node's
    unit-local subtree (solid edges, not descending into other entry
    points), in {!Nf2.Oid.compare} order. Computed on first use and
    memoised on the node until the next {!insert_object} or
    {!delete_object}. *)

val subtree_refs : t -> node -> Nf2.Oid.t list
(** Every reference carried by the subtree rooted at the node (the node
    included), deduplicated, in deterministic order. *)

val subtree_size : t -> node -> int
(** Number of nodes in the subtree (the node included). *)

val nodes_at_path : t -> Nf2.Oid.t -> Nf2.Path.t -> node list
(** Instance nodes covering the attribute [path] of the given complex object,
    fanning out over collection members; [Path.root] is the object node
    itself. *)

val lu_of_resource : t -> string -> Obs.Event.lu option
(** Lockable-unit metadata (granule kind as ["BLU"]/["HoLU"]/["HeLU"], plus
    depth in the instance graph) for a resource string produced by
    {!Node_id.to_resource}; [None] for resources outside this graph. One
    {!node_of_resource} walk; the lock table calls it only for events it
    emits. *)

val lu_resolver : t -> string -> Obs.Event.lu option
(** {!lu_of_resource} pre-applied, in the shape
    {!Lockmgr.Lock_table.set_meta} expects. *)

val fold : (node -> 'accu -> 'accu) -> t -> 'accu -> 'accu
(** Over all live nodes in dense-id order: build order (preorder) for a
    fresh graph, reused ids first after deletions. *)
