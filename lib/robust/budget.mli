(** Retry budget: a token bucket that couples the restart rate to the
    commit rate. Each commit earns [ratio] retry tokens (capped at
    [burst]); each restart spends one. When the bucket is empty the
    transaction gives up instead of retrying, so restarts can never
    outnumber useful work by more than the configured ratio. *)

type config = {
  ratio : float;  (** retry tokens earned per commit *)
  burst : float;  (** bucket capacity (also the initial fill) *)
}

val default_config : config
(** [ratio 0.5, burst 16]. *)

val config_of_string : string -> (config, string) result
(** ["RATIO"] or ["RATIO:BURST"]. *)

val validate : config -> string list

type t

val create : config -> t
val tokens : t -> float
val denied_count : t -> int

val on_commit : t -> unit
val try_retry : t -> bool
(** Spend one token; [false] (and counts a denial) when the bucket is
    empty. *)
