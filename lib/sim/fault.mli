(** Fault-injection plans for chaos runs.

    A plan assigns each job a {!fate} by a seeded draw, so the same
    [(fault_seed, txn)] pair always yields the same fate regardless of job
    count or ordering — chaos runs are reproducible from the seed alone. *)

type fate =
  | Normal
  | Crash_at of int
      (** abort without restart just before accessing the given step,
          releasing all locks (a process crash under strict 2PL) *)
  | Stall of int
      (** every access takes [factor] times longer (a slow client) *)
  | Hog
      (** grabs its first step's locks, then sits on them without
          committing until the runner's [hog_hold] expires, at which point
          it crashes and releases (a stuck client holding locks) *)

type spec = {
  crash : float;  (** probability a job crashes mid-run *)
  stall : float;  (** probability a job is stalled *)
  stall_factor : int;  (** access-cost multiplier for stalled jobs *)
  hog : float;  (** probability a job is a lock hog *)
  fault_seed : int;  (** RNG seed; same seed, same fates *)
}

val none : spec
(** All rates zero — every job {!Normal}. *)

val active : spec -> bool
(** At least one rate is positive. *)

val fate : spec -> txn:int -> steps:int -> fate
(** The fate of transaction [txn] in a job with [steps] steps. Pure:
    derived from [spec.fault_seed] and [txn] only. *)

val of_string : string -> (spec, [ `Msg of string ]) result
(** Parses ["crash:0.1,stall:0.2x4,hog:0.05"]. Clauses are comma-separated
    [KIND:RATE]; [stall] optionally carries an [xFACTOR] suffix (default
    [x8]). Rates must lie in [0,1] and sum to at most 1. The seed defaults
    to 0 — set [fault_seed] afterwards (the CLI reuses [--seed]). *)

val to_string : spec -> string
(** Round-trips the clause syntax (seed excluded); ["none"] when inactive. *)
