(** A metrics registry: named monotonic counters, log-scale histograms,
    gauges and sliding windows, with a uniform flat export.

    This replaces ad-hoc records of mutable ints as the substrate for
    run-time metrics; [Lockmgr.Lock_stats] and [Sim.Metrics] remain as thin
    record views over what a run produced, and both now serialize through
    the same [(string * float) list] row shape used here. Counters and
    histograms accumulate a whole run; gauges and windows carry the live
    state [colock top] renders and the SLO engine evaluates (see
    {!Monitor}).

    Metric names may carry labels inline — [{lu="HoLU"}]; to the registry
    they are just distinct names. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 for a counter never incremented. *)

val observe : t -> string -> float -> unit
(** Records into the named histogram, creating it on first use. *)

val histogram : t -> string -> Histogram.t
(** Get-or-create (useful to pre-declare histograms so exports have stable
    keys even when nothing was observed). *)

val find_histogram : t -> string -> Histogram.t option

val set_gauge : t -> string -> float -> unit
(** Sets the named gauge, a level that goes up and down, creating it on
    first use. *)

val gauge_value : t -> string -> float
(** 0 for a gauge never set. *)

val window : ?span:float -> t -> string -> Window.t
(** Get-or-create; [span] (default 1000 clock units) binds on first
    creation and is ignored on later lookups. *)

val find_window : t -> string -> Window.t option

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * Histogram.t) list
val gauges : t -> (string * float) list
val windows : t -> (string * Window.t) list

val row : t -> (string * float) list
(** Counters (as floats), then gauge values, then each histogram expanded
    to [name_count/_mean/_p50/_p95/_p99/_max], then each window expanded to
    [name_count/_rate/_p50/_p95/_p99/_max]. *)

val bucket_fields : t -> (string * Json.t) list
(** One ["<name>_buckets"] field per histogram with data: a list of
    [[lower_bound, count]] pairs (see {!Histogram.bucket_counts}), for
    exports that want full distributions next to the flat {!row}. *)

val to_json : t -> Json.t
(** The flat {!row} plus {!bucket_fields}. *)

val reset : t -> unit
(** Zeroes every counter and gauge and clears every histogram and window —
    run isolation when one process compares several techniques against a
    single live registry. *)
