(** Secondary indexes on atomic attribute paths.

    An index maps the rendered values found at one atomic path of a relation
    to the keys of the complex objects containing them (a path inside a
    collection indexes every member, so one object can appear under several
    index values). Indexes are maintained by {!Database} on every
    insert/replace/delete.

    Following the paper's §1, index synchronization itself is *action-
    oriented* ([BaSc77]) and out of scope: index reads and updates here are
    atomic operations; transaction-oriented locks protect only the data. The
    integration of indexes into the lock technique proper is the paper's §5
    future work. *)

type t
(** The entries live in a hash table keyed by rendering, each holding the
    ordered set of object keys that carry it: a probe is one string hash
    and one bucket scan. *)

val build : Relation.t -> Path.t -> (t, string) result
(** Scans the relation. Fails when the path does not resolve to an atomic
    attribute of the relation's schema. *)

val path : t -> Path.t
val relation : t -> string

val lookup : t -> Value.t -> string list
(** Keys of the objects carrying the given atomic value at the indexed path,
    ascending (the keys of one rendering are an ordered set; only the
    renderings are hashed). Non-atomic probe values find nothing. *)

val insert_entries : t -> key:string -> Value.t -> unit
(** Registers one (new) object's values. *)

val remove_entries : t -> key:string -> Value.t -> unit
(** Unregisters one object's values (pass the stored value). *)

val replace_entries : t -> key:string -> before:Value.t -> Value.t -> unit
(** Moves one object's entries from the version it replaced ([before]) to
    the new one. An index whose renderings at its path are the same list
    before and after is left alone, so an update that does not touch the
    indexed path costs two projections and no table write; the final state
    is the one removing and re-adding would leave. *)

val cardinality : t -> int
(** Number of distinct indexed values. *)
