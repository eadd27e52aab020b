(** A stored complex relation: a keyed set of complex objects. *)

type t

type error =
  | Schema_error of Schema.error
  | Type_error of Value.type_error
  | No_key of string  (** object value carries no renderable key *)
  | Duplicate_key of string
  | Unknown_key of string
  | Key_changed of { key : string; changed_to : string }
      (** a replace of the object stored under [key] carried another key;
          a replace cannot move an object, so it is refused *)

val pp_error : Format.formatter -> error -> unit

val create : Schema.relation -> (t, error) result
(** Validates the schema and creates an empty relation. *)

val schema : t -> Schema.relation
val name : t -> string
val insert : t -> Value.t -> (Oid.t, error) result
val replace : t -> key:string -> Value.t -> (Value.t, error) result
(** [replace rel ~key value] overwrites the object stored under [key] with
    [value], and returns the version it replaced. A free [key] is refused
    with [Unknown_key] before anything else is checked: a replace never
    inserts.

    A replace keeps the key: a value whose own key is not [key] would be
    stored beside the old object, so it is refused with [Key_changed]
    before it is typechecked. This is the one place keys are checked for
    every writer (the executor's updates, check-ins, undo).

    The value is checked with {!Value.typecheck_replacement} against the
    version it replaces, found by the one lookup of its key, so an update
    walks only the subtrees it rebuilt; the result is exactly {!insert}'s
    [Type_error] or [No_key]. *)

val delete : t -> string -> (unit, error) result
val find : t -> string -> Value.t option
val mem : t -> string -> bool
val cardinality : t -> int

val fold : (string -> Value.t -> 'accu -> 'accu) -> t -> 'accu -> 'accu
(** Iteration in ascending key order, so results are deterministic. *)

val keys : t -> string list
(** Ascending. *)

val objects : t -> (string * Value.t) list
(** Ascending by key. *)
