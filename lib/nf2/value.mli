(** Values (instances) of the extended NF² data model. *)

type t =
  | Str of string
  | Int of int
  | Real of float
  | Bool of bool
  | Ref of Oid.t
  | Set of t list
  | List of t list
  | Tuple of (string * t) list

val str : string -> t
val int : int -> t
val ref_to : relation:string -> key:string -> t

type type_error = {
  at : Path.t;  (** where in the value the mismatch was found *)
  expected : Schema.attr_type;
  found : t;
}

val pp_type_error : Format.formatter -> type_error -> unit

val typecheck : Schema.attr_type -> t -> (unit, type_error) result
(** Structural conformance of a value to an attribute type. [Ref] values must
    point into the declared target relation (existence of the target object is
    checked by {!Database.check_ref_integrity}, not here). Tuple values must
    provide exactly the schema's fields, in schema order. *)

val typecheck_object : Schema.relation -> t -> (unit, type_error) result
(** Conformance of a complex object (one top-level tuple) to its relation.
    Walks the whole value; inserts use it. *)

val typecheck_replacement :
  Schema.relation -> stored:t -> t -> (unit, type_error) result
(** [typecheck_replacement rel ~stored value] is [typecheck_object rel value]
    for a value that replaces [stored], which must conform to [rel] (a
    version the store holds: stored values are immutable and were checked
    when stored). It walks [value] and [stored] in lockstep — fields by
    position, members by position — and skips every subtree of [value]
    physically equal ([==]) to its counterpart, which therefore conforms.
    The skipped subtrees hold no mismatch, so the result, [Ok] or the first
    [type_error] with its path, is exactly the full check's. An update that
    rebuilds one path of an object walks that path and compares pointers
    beside it.

    {!typecheck}, {!typecheck_object} and this share one walk. It allocates
    nothing unless it finds a mismatch. *)

val key_of_object : Schema.relation -> t -> string option
(** Rendered key value of a complex object, e.g. ["c1"]; [None] when the value
    is not a tuple or the key field is missing/non-atomic. *)

val project : t -> Path.t -> t list
(** [project v path] returns every sub-value reached by [path], fanning out
    over collections (hence a list). [Path.root] yields [[v]]. Missing fields
    yield the empty list. *)

val field : t -> string -> t option
(** Direct field access on a tuple value. *)

val refs : t -> Oid.t list
(** Every reference contained anywhere in the value, in depth-first order. *)

val render_atomic : t -> string option
(** Rendering of atomic values used for keys: [Str "c1"] -> ["c1"],
    [Int 3] -> ["3"]; [None] for non-atomics. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
