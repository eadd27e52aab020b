(** The differential profiler: explains a wait-time regression.

    Takes two {!Profile} reports — a known-good [base] and a fresh [cand]
    — and attributes the total wait-time delta across the same partitions
    the contention profiler uses: lockable-unit level, instance-graph
    depth, resource, waiter-mode × holder-mode conflict cell, and blocker.
    Every partition's deltas sum {e exactly} to [cand.total_blocked -
    base.total_blocked]: per-span float residue is folded into the largest
    share and per-partition residue into the largest-|delta| entry (the
    same discipline as {!Blame}), so an attribution never invents or loses
    a tick of the regression it explains.

    Two deliberate divergences from {!Profile}'s own aggregation keep the
    partitions honest: spans with no depth tag land in an explicit
    ["untagged"] depth bucket (instead of being dropped), and a span
    blocked behind several distinct holder modes splits its duration
    equally across the cells (instead of charging each cell in full) — a
    partition that double-counts cannot conserve a delta.

    Resources, cells, blockers, levels or depths present on only one side
    are kept as explicit drift ({!Only_base} / {!Only_cand}), never
    silently dropped; so are whole runs when two multi-run traces are
    paired by [Run_meta] label ({!pair_reports}). *)

type status =
  | Both
  | Only_base  (** the key vanished from the candidate ("removed") *)
  | Only_cand  (** the key is new in the candidate ("added") *)

type entry = {
  e_key : string;
      (** level name, depth (or ["untagged"]), resource, ["WAITER<-HOLDER"]
          conflict cell, or blocker label (["T7"] / ["queue"]) *)
  e_base : float;  (** blocked time on the base side; [0.] if {!Only_cand} *)
  e_cand : float;
  e_delta : float;
      (** [e_cand - e_base] after residue folding; each partition's deltas
          sum exactly to the report's {!report.delta} *)
  e_base_waits : int;
  e_cand_waits : int;
  e_status : status;
}

type report = {
  label : string option;  (** the paired runs' shared [Run_meta] label *)
  base_total : float;
  cand_total : float;
  delta : float;  (** [cand_total -. base_total] *)
  base_waits : int;
  cand_waits : int;
  levels : entry list;  (** every list: delta descending, ties by key *)
  depths : entry list;
  resources : entry list;
  cells : entry list;
  blockers : entry list;
}

val conserves : report -> bool
(** Every partition's deltas sum to {!report.delta} within one part in
    10{^9} — the identity the unit tests and experiment E22 assert. *)

val of_reports :
  ?label:string -> base:Profile.report -> cand:Profile.report -> unit ->
  report
(** Diff two single-run profiles. [?label] overrides the label (default:
    the candidate's, then the base's). *)

type pairing = {
  pairs : report list;  (** base-report order *)
  only_base : string list;
      (** labels of base runs with no candidate twin (["(unlabelled)"]
          for an unlabelled run) — drift, reported, never dropped *)
  only_cand : string list;
}

val pair_reports :
  base:Profile.report list -> cand:Profile.report list -> pairing
(** Pairs multi-run traces' profiles by label (first unconsumed match on
    each side, in base order) — the engine of [colock why]. *)

val to_json : report -> Json.t
val pairing_to_json : pairing -> Json.t

val pp : ?top:int -> Format.formatter -> report -> unit
(** Text rendering; [top] (default 10) bounds the resource, cell and
    blocker tables (levels and depths always print whole). Expects a
    vertical box (see {!print}). *)

val print : ?top:int -> out_channel -> report -> unit

val print_drift : out_channel -> pairing -> unit
(** One ["drift:"] line per unpaired run — the unknown-run diagnostic. *)
