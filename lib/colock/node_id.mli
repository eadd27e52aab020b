(** Identity of instance-level lockable units.

    A node id is the path of containment steps from the database node down to
    the unit: database, segment, relation, complex-object key, then attribute
    and collection-member steps, e.g. [db1/seg1/cells/c1/robots/r1]. The
    rendering doubles as the resource name handed to the generic
    {!Lockmgr.Lock_table}. *)

type t

val database : string -> t
(** The root node of a database's lock graph. *)

val child : t -> string -> t
(** One containment step down. Any string is a step. *)

val parent : t -> t option
(** [None] on the database node. *)

val steps : t -> string list
(** All steps, database name first. *)

val of_steps : string list -> t option
(** [None] on the empty list. *)

val to_resource : t -> string
(** ["db1/seg1/cells/c1"]: the steps in the {!Obs.Resource} codec, which
    joins them with ['/'] and escapes a step's slashes so that the
    rendering is injective; {!Obs.Resource.steps} inverts it. *)

val child_resource : string -> string -> string
(** [child_resource (to_resource node) step = to_resource (child node step)],
    in one concatenation. *)

val depth : t -> int
(** Number of steps: the database node has depth 1. *)

val is_ancestor : ancestor:t -> t -> bool
(** Proper-or-equal ancestry along containment steps. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
