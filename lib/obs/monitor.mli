(** The live operations monitor: a sink handler folding the event stream
    into gauges, sliding windows and per-resource contention tallies — the
    state [colock top] renders and the SLO engine ({!Slo}) evaluates.

    It reads waits, held locks and live transactions from its own {!Spans}
    fold, counts commits, and keeps in its registry:

    - gauges [active_txns], [lock_entries], [wait_queue_depth]
    - windows [window.grants], [window.commits], [window.aborts],
      [window.deadlocks] (rates) and [window.lock_wait] (wait-time
      quantiles), the last also per lockable-unit kind as
      [window.lock_wait{lu="BLU"}] / [HoLU] / [HeLU] — live contention
      attributed to the paper's granule hierarchy exactly as [Profile]
      attributes it offline
    - [aborts.<reason>] counters (the same taxonomy as [Profile])

    and, outside the registry, per-resource blocked time for the "hot
    resources" panel, tracked through a {!Sketch} so at most [hot_k]
    resources are held no matter how many distinct objects the stream
    touches.

    A [Run_meta] event resets the registry and the fold, restarts the clock
    and relabels the monitor, so one monitor fed several technique runs
    never bleeds stats between them: each run reads as it would in a fresh
    monitor. *)

type resource_stat = {
  mutable r_blocked : float;
  mutable r_waits : int;
  mutable r_lu : Event.lu option;
}

type t

val create : ?span:float -> ?hot_k:int -> unit -> t
(** [span] is the sliding-window length in clock units (default 200 —
    about an access-burst of simulator ticks). [hot_k] (default 32) bounds
    the hot-resource sketch; raises [Invalid_argument] when
    [hot_k <= 0]. *)

val registry : t -> Registry.t
val span : t -> float

val handle : t -> Event.t -> unit
(** The sink handler: attach with [Sink.attach sink (Monitor.handle m)]. *)

val label : t -> string option
(** The current run's label (from [Run_meta] or {!begin_run}). *)

val begin_run : t -> label:string -> unit
(** Resets everything, the clock included, and relabels — what a
    [Run_meta] event does, for callers driving the monitor directly. *)

val now : t -> float
(** Clock value of the latest event seen. *)

val elapsed : t -> float

val commits : t -> int
val throughput : t -> float
(** Commits per clock unit since the run started. *)

val aborts : t -> (string * int) list
(** Abort taxonomy, [(reason, count)] sorted by reason. *)

val hot_resources : ?top:int -> t -> (string * resource_stat) list
(** Most-blocked-on resources, descending blocked time (ties by name).
    Bounded by [hot_k]: [r_blocked] is the sketch estimate (exact while
    fewer than [hot_k] distinct resources ever blocked anyone). *)
