(** The one write path: every insert, replace and delete of a stored complex
    object changes the database, its indexes and the instance graph
    together, so downward propagation (§4.4.2) locks what the data reaches.
    A write is whole or refused: every refusal comes before either half
    changes. Each write returns the {!change} that {!revert} undoes. A
    replace is value-level and leaves the graph alone, so it must keep the
    object's structure (member counts, reference targets). *)

type t

val create : Nf2.Database.t -> Instance_graph.t -> t
(** The graph must be {!Instance_graph.build} of the database. *)

val database : t -> Nf2.Database.t

type change =
  | Inserted of { oid : Nf2.Oid.t }
  | Replaced of { oid : Nf2.Oid.t; before : Nf2.Value.t }
  | Deleted of { relation : string; before : Nf2.Value.t }

type error = Database of Nf2.Database.error | Graph of string

val insert : t -> string -> Nf2.Value.t -> (change, error) result
(** Checks the catalog and the relation's graph node, inserts into the
    database, then files the object's subtree in the graph. *)

val replace :
  t -> Nf2.Oid.t -> Nf2.Value.t -> (change, Nf2.Database.error) result
(** A new version of a stored object, under the same key; an oid naming no
    stored object is refused ([Unknown_key] or [Unknown_relation]). *)

val delete : t -> Nf2.Oid.t -> (change, error) result
(** Takes the before-image, removes the object from the graph, which
    refuses a referenced one, then from the database. *)

val revert : t -> change -> (unit, error) result
(** Makes the write that undoes the change; revert the newest first. *)
