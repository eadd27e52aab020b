(** The authorization component.

    §3.2.3: "a close cooperation of the concurrency control component and the
    authorization component ... can drastically increase the degree of
    concurrency". Rule 4′ asks, per transaction, whether a unit (identified
    here by the relation owning it) is *modifiable*; if not, downward
    propagation may weaken X to S on that unit's entry point.

    Rights are per transaction and per relation; the default policy is
    configurable so both "everything modifiable" (plain rule 4) and
    "libraries read-only" setups are easy to express. *)

type txn_id = int
type t

val create : ?default_modifiable:bool -> unit -> t
(** [default_modifiable] applies where no explicit right was granted or
    revoked (default [true], which makes rule 4′ coincide with rule 4). *)

val grant_modify : t -> txn:txn_id -> relation:string -> unit
val revoke_modify : t -> txn:txn_id -> relation:string -> unit

val set_relation_default : t -> relation:string -> bool -> unit
(** Relation-wide default (e.g. mark the "effectors" library read-only for
    everyone); per-transaction grants/revocations take precedence. *)

val may_modify : t -> txn:txn_id -> relation:string -> bool
val forget_txn : t -> txn:txn_id -> unit
(** Drops per-transaction rights at end of transaction. *)
