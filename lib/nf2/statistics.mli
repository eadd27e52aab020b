(** Per-relation statistics.

    §4.5 of the paper determines "optimal" lock requests "from a query and
    additional structural and statistical information". These are the
    statistics: cardinalities, average collection sizes, and distinct counts
    used to estimate equality-predicate selectivities. *)

type t = {
  relation : string;
  cardinality : int;  (** number of complex objects *)
  collection_sizes : (Path.t * float) list;
      (** average number of members per instance, for every set/list path *)
  distinct_counts : (Path.t * int) list;
      (** number of distinct values, for every atomic path *)
}

val compute : Relation.t -> t
(** One full scan of the relation: each value costs one probe of its
    path's set of renderings, reached through its parent path's slot.
    Both lists come out in {!Path.compare} order. *)

val empty : string -> t
(** Statistics of an empty (or unknown) relation; estimates degrade to
    worst-case assumptions. *)

val avg_collection_size : t -> Path.t -> float
(** Average member count of the collection at [path]; [1.0] when unknown. *)

val selectivity_eq : t -> Path.t -> float
(** Estimated fraction of objects matched by an equality predicate on the
    atomic attribute at [path]: [1 / distinct], [1.0] when unknown. A
    predicate on the key attribute thus estimates to [1 / cardinality]. *)

val estimate_matching : t -> Path.t option -> float
(** Expected number of complex objects matched by an (optional) equality
    predicate: [cardinality * selectivity]; with no predicate, the full
    cardinality. At least [1.0] when the relation is non-empty. *)

val pp : Format.formatter -> t -> unit
