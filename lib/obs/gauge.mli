(** A gauge: a level that goes up and down (active transactions, lock-table
    entries, wait-queue depth), with a high-water mark.

    Counters answer "how many ever happened"; gauges answer "how many right
    now" — the live half of the registry. *)

type t

val create : unit -> t

val set : t -> float -> unit
val add : t -> float -> unit
val decr : t -> unit

val value : t -> float
val peak : t -> float
(** Highest value ever {!set} (0 for a fresh or {!reset} gauge; a gauge
    that only ever went negative also reports 0). *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
