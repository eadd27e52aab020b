(** Counters describing the work a lock table performed.

    The paper's qualitative evaluation (§4.6) argues in terms of "overhead
    caused by the administration of locks and conflict tests"; these counters
    make that overhead measurable. *)

type t = {
  mutable requests : int;  (** lock requests received *)
  mutable immediate_grants : int;  (** granted without waiting *)
  mutable waits : int;  (** requests that had to queue *)
  mutable conversions : int;  (** grants that upgraded an existing lock *)
  mutable conflict_tests : int;  (** compatibility tests executed *)
  mutable releases : int;  (** lock entries released *)
  mutable escalations : int;  (** run-time lock escalations (set by clients) *)
  mutable deescalations : int;  (** lock de-escalations (set by clients) *)
  mutable deadlocks : int;  (** waits-for cycles detected (set by clients) *)
  mutable victim_aborts : int;
      (** transactions sacrificed to break a cycle (set by clients) *)
  mutable timeout_aborts : int;
      (** transactions aborted by a lock-wait timeout (set by clients) *)
}

val create : unit -> t

val row : t -> (string * float) list
(** Stable key-value view mirroring [Sim.Metrics.row], so both stats records
    serialize uniformly (tables, JSON exports). *)
