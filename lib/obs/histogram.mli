(** Log-scale latency histograms.

    64 base-2 buckets cover [0, 2^62) with a terminal overflow bucket, so a
    recording costs one array increment regardless of the value's magnitude.
    Quantiles interpolate linearly inside the chosen bucket and clamp to the
    exact observed minimum/maximum, which keeps the degenerate cases honest:
    an empty histogram reports 0 everywhere, a single sample reports itself
    for every quantile, and overflow values report against the true max. *)

type t

val create : unit -> t
val reset : t -> unit

val observe : t -> float -> unit
(** Negative values clamp to 0 (durations cannot be negative). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val quantile : t -> float -> float
(** [quantile h q] for [q] in [0, 1] (clamped). 0 when empty. *)

val bucket_counts : t -> (float * int) list
(** Non-empty buckets as [(inclusive lower bound, count)], in bucket order —
    enough to reconstruct the distribution downstream (plots, exports)
    without shipping 64 mostly-zero cells. *)

val row : ?prefix:string -> t -> (string * float) list
(** [count, mean, p50, p95, p99, max], each key optionally
    ["<prefix>_"]-qualified. *)
