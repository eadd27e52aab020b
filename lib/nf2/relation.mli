(** A stored complex relation: a keyed set of complex objects. *)

type t

type error =
  | Schema_error of Schema.error
  | Type_error of Value.type_error
  | No_key of string  (** object value carries no renderable key *)
  | Duplicate_key of string
  | Unknown_key of string
  | Key_changed of { key : string; changed_to : string }
      (** an update rewrote the key of the object stored under [key]; a
          replace cannot move an object, so the update is refused *)

val pp_error : Format.formatter -> error -> unit

val create : Schema.relation -> (t, error) result
(** Validates the schema and creates an empty relation. *)

val schema : t -> Schema.relation
val name : t -> string
val insert : t -> Value.t -> (Oid.t, error) result
val replace : t -> Value.t -> (Oid.t * Value.t option, error) result
(** Like {!insert} but overwrites the object stored under the value's key,
    and returns the version it replaced ([None] when the key was free).

    A replace keeps the key: it replaces the version under the new value's
    own key. A value rebuilt with another key would be stored beside the
    old object, so an update that changes a key is refused before it gets
    here ([Key_changed], from [Query.Executor.apply_update]).

    The value is checked with {!Value.typecheck_replacement} against the
    version it replaces, found by the one lookup, so an update walks only
    the subtrees it rebuilt; the result is exactly {!insert}'s [Type_error]
    or [No_key]. *)

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
