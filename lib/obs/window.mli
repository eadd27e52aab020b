(** A sliding-window instrument: rates and exact quantiles over the most
    recent [span] clock units (virtual simulator ticks, or seconds when the
    emitter stamps wall time).

    Where {!Histogram} accumulates a whole run, a window answers the live
    question — grants per tick {e right now}, the p99 lock wait of the last
    [span] ticks. The window is half-open: a sample stamped exactly [span]
    ago has aged out ([now - span < time <= now]). *)

type t

val create : ?limit:int -> span:float -> unit -> t
(** [limit] caps the live samples (default 8192); beyond it the oldest
    live sample is evicted and counted in {!shed}. Raises
    [Invalid_argument] when [span <= 0] or [limit <= 0]. *)

val shed : t -> int
(** Live samples evicted by the [limit] cap — visible backpressure, never
    silent. *)

val observe : t -> now:float -> float -> unit
(** Records [value] at time [now], advancing the window and expiring aged
    samples. *)

val mark : t -> now:float -> unit
(** [observe] with value 1.0 — for pure event-rate windows. *)

val advance : t -> now:float -> unit
(** Moves the window edge to [now] (if later) and expires aged samples
    without recording anything — call before reading when time passed
    silently. *)

val count : t -> int
val rate : t -> float
(** Live samples per clock unit: [count / span]. *)

val sum : t -> float
val mean : t -> float
val quantile : t -> float -> float
(** Exact quantile over the live samples (linear interpolation between
    order statistics; 0 when empty). *)

val max_value : t -> float
val reset : t -> unit

val row : ?prefix:string -> t -> (string * float) list
(** [name_count/_rate/_p50/_p95/_p99/_max], mirroring {!Histogram.row}. *)
