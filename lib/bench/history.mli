(** Append-only, versioned run-history store: the perf trajectory.

    Where {!Baseline} is a single committed snapshot that the regression
    gate compares against, the history is the {e sequence} of measured
    runs accumulated across commits: one self-describing JSON line per
    run ([BENCH_HISTORY.jsonl] at the repo root), appended by
    [bench/main] after each experiment's reference run and by
    [colock bench diff] after each unperturbed gate run. [colock trends]
    folds it into per-metric trajectories and flags anomalies with an
    EWMA tracker inside a MAD band — trends stay visible across PRs
    instead of evaporating with each fresh baseline.

    Lines are whole (rendered then written with one flush, like
    {!Obs.Jsonl.handler}), so a crash-cut append never corrupts earlier
    records; {!load} skips undecodable lines with a diagnostic instead of
    failing the whole read. *)

type record = {
  seq : int;  (** 1-based, monotonically increasing per file *)
  source : string;  (** who appended: ["bench"] or ["bench-diff"] *)
  label : string;  (** experiment id or scenario-suite path *)
  metrics : (string * float) list;  (** sorted by key *)
}

val append :
  path:string -> source:string -> label:string -> (string * float) list ->
  record
(** Appends one record, continuing [seq] from the last decodable record
    in the file (1 on a fresh or missing file), and returns it. *)

val load : string -> record list * string list
(** Records in file order plus per-line diagnostics for skipped lines. A
    missing file is an empty history, not an error. *)

(** {2 Trajectories} *)

type point = {
  pt_seq : int;
  pt_value : float;
  pt_ewma : float;  (** the tracker after absorbing this point *)
  pt_anomalous : bool;
      (** the point missed the {e prior} EWMA by more than the band *)
}

type trend = {
  t_source : string;
  t_label : string;
  t_metric : string;
  t_points : point list;  (** file order *)
  t_median : float;
  t_mad : float;  (** median absolute deviation of the values *)
  t_band : float;  (** [k * 1.4826 * mad], with a tiny absolute floor *)
  t_anomalies : int;
}

val trends : ?alpha:float -> ?k:float -> record list -> trend list
(** One trend per (source, label, metric) triple holding at least one
    point, in lexicographic order of the triple. [alpha] (default 0.3) is
    the EWMA smoothing factor; [k] (default 3) sizes the anomaly band in
    scaled-MAD units (1.4826 × MAD estimates one standard deviation for
    Gaussian noise). The first point of a series seeds the tracker and is
    never anomalous. *)

val trend_to_json : trend -> Obs.Json.t
