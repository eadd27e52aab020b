(** A database: named collection of segments holding complex relations.

    Mirrors the System R containment hierarchy the paper starts from
    (Fig. 2): database > segments > relations > (complex objects > ...). *)

type t

type error =
  | Catalog_error of Catalog.error
  | Relation_error of Relation.error
  | Unknown_relation of string
  | Index_error of string

val pp_error : Format.formatter -> error -> unit

val create : string -> t
val name : t -> string
val catalog : t -> Catalog.t

val create_relation : t -> Schema.relation -> (Relation.t, error) result
(** Validates the schema (including cross-relation checks against what is
    already in the catalog) and registers the relation. *)

val relation : t -> string -> Relation.t option
val relations : t -> Relation.t list
(** Sorted by name. *)

val insert : t -> string -> Value.t -> (Oid.t, error) result

val replace : t -> Oid.t -> Value.t -> (Value.t, error) result
(** [replace db oid value] writes [value] as the new version of the object
    [oid] names, {!Relation.replace} then index upkeep, and returns the
    version it replaced. An oid naming no stored object is refused
    ([Unknown_relation], then [Relation_error (Unknown_key _)]), then a
    value whose key is not [oid]'s ([Relation_error (Key_changed _)]),
    before it is typechecked. The stored object is looked up once and the
    value is checked against it ({!Value.typecheck_replacement}). An index
    whose renderings are equal before and after is left alone
    ({!Index.replace_entries}). *)

val delete : t -> Oid.t -> (unit, error) result

val deref : t -> Oid.t -> Value.t option
(** Follows a reference to the complex object it designates. *)

val create_index : t -> relation:string -> Path.t -> (unit, error) result
(** Builds (or rebuilds) a secondary index on an atomic attribute path; kept
    up to date by {!insert}, {!replace} and {!delete}. *)

val drop_index : t -> relation:string -> Path.t -> unit
val indexed_paths : t -> relation:string -> Path.t list
(** Sorted. *)

val index_lookup :
  t -> relation:string -> path:Path.t -> Value.t -> string list option
(** [Some keys] (ascending) when an index on [path] exists, [None]
    otherwise. *)

type violation = { holder : Oid.t; at : Path.t; dangling : Oid.t }

val pp_violation : Format.formatter -> violation -> unit

val check_ref_integrity : t -> violation list
(** Every reference stored anywhere must designate an existing complex
    object. *)
