(** Space-Saving top-K heavy hitters in O(K) memory.

    Tracks at most [k] string keys with weighted counts. When a new key
    arrives into a full sketch it evicts the smallest counter and inherits
    its count as an overestimation bound — the classic Space-Saving scheme
    (Metwally et al. 2005). For a stream of total weight [N]:

    - every key whose true weight exceeds [N/k] is tracked;
    - [estimate - error <= true weight <= estimate], with [error <= N/k].

    This is what keeps live hot-resource tracking bounded-cardinality no
    matter how many distinct objects the lock stream touches (see
    {!Monitor}). Not thread-safe. *)

type t

val create : k:int -> t
(** Raises [Invalid_argument] when [k <= 0]. *)

val k : t -> int

val observe : ?weight:float -> t -> string -> string option
(** Adds [weight] (default 1) to [key]'s counter. Returns [Some victim]
    when tracking [key] evicted the smallest tracked key — callers
    maintaining side tables (gauges) must drop the victim in lockstep. *)

val find : t -> string -> (float * float) option
(** [(estimate, error)] when the key is currently tracked. *)

val top : ?n:int -> t -> (string * float * float) list
(** [(key, estimate, error)] by estimate descending, ties by key; all
    tracked keys when [n] is omitted. *)

val cardinality : t -> int
(** Currently tracked keys ([<= k]). *)

val total : t -> float
(** Total weight observed, tracked keys or not. *)

val reset : t -> unit
