(** The event→metrics bridge: a sink handler that feeds a {!Registry}.

    Counts every event kind under ["events.<name>"] and feeds three latency
    histograms:

    - ["lock_wait"] — each granted wait span of its {!Spans} fold;
    - ["grant_latency"] — [Lock_requested] to [Lock_granted] (immediate
      grants observe ≈ 0, so the histogram shows the full grant path);
    - ["txn_response"] — each committed lifecycle of its {!Spans} fold,
      first [Txn_begin] to [Txn_commit] (restarted deadlock victims keep
      their original begin time). *)

type t

val create : unit -> t
(** The three histograms are pre-declared, so {!Registry.row} exports stable
    keys even for runs without waits. *)

val registry : t -> Registry.t

val handle : t -> Event.t -> unit
(** Pass [handle collector] to {!Sink.create}. *)
