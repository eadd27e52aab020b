(** The span fold: one online pass over a lock-event stream that makes
    every span decision of the trace layer. {!Profile}, {!Blame},
    {!Collector}, {!Monitor} and the Chrome export {!Trace} are projections
    of the spans it closes.

    - A wait opens at the first [Lock_waited] of a (transaction, resource).
      A re-wait keeps the span and swaps its live blocker set; a live
      blocker's [Lock_released] cuts a segment.
    - A wait closes on the matching [Lock_granted], on the waiter's
      [Victim_aborted], [Timeout_abort], [Contention_abort] or [Txn_abort],
      or at {!finish}.
    - A lifecycle runs from a transaction's first [Txn_begin] to its
      [Txn_commit] or [Txn_abort].
    - Traces whose waits carry no [holders] fall back to the integer
      [blockers], with modes reconstructed from the held-mode table. *)

type outcome =
  | Granted
  | Aborted of string  (** the waiter died first; cause tag *)
  | Unfinished  (** still queued when the stream ended *)

type agent =
  | Txn of int  (** a blocking transaction *)
  | Queue
      (** the FIFO-fairness rule itself: nobody incompatible holds the
          resource, the request just queues behind earlier waiters *)

val compare_agent : agent -> agent -> int
(** Transactions ascending by id, [Queue] last. *)

type segment = {
  g_start : float;
  g_finish : float;  (** strictly after [g_start] *)
  g_live : (agent * string option) list;
      (** the blockers, each with its held mode when known; never empty *)
}

type span = {
  s_txn : int;
  s_resource : string;
  s_mode : string;  (** the mode the waiter asked for *)
  s_holder_modes : string list;
      (** distinct modes held by the blockers at wait-open; [[]] means the
          wait was caused by the FIFO queue rule alone *)
  s_lu : Event.lu option;
      (** the wait's own tag, else the last tag seen on the resource *)
  s_blockers : int list;  (** as reported at wait-open *)
  s_holders : Event.holder list;  (** as reported at wait-open *)
  s_start : float;
  s_finish : float;
  s_outcome : outcome;
  s_segments : segment list;  (** chronological, positive-length only *)
}

val duration : span -> float

type life = {
  l_txn : int;
  l_begin : float option;  (** [None]: it ended without a begin in view *)
  l_end : (string * float) option;
      (** [("commit" | abort reason, time)]; [None]: running at {!finish} *)
}

val abort_cause : Event.kind -> string option
(** The abort-taxonomy tag: ["deadlock"], ["timeout"] and ["contention"]
    for the victim events, the reason of any other [Txn_abort]. A victim's
    own [Txn_abort] repeats what its victim event counted: no tag. A wait
    that dies closes as [Aborted] with the tag, or with the reason. *)

type t

val create : unit -> t

val on_wait : t -> (span -> unit) -> unit
(** Subscribes to every wait span as it closes. *)

val on_life : t -> (life -> unit) -> unit
(** Subscribes to every lifecycle as it closes. *)

val handle : t -> Event.t -> unit

val finish : t -> unit
(** Closes every open wait as [Unfinished] at the last timestamp seen, then
    every open lifecycle. *)

val reset : t -> unit
(** Forgets the stream, open spans included; subscriptions stay. *)

val events : t -> int
val first_time : t -> float
val last_time : t -> float
(** Earliest and latest timestamps seen; [0.] before any event. *)

val waiting : t -> int
val held : t -> int
(** Granted (transaction, resource) pairs not yet released. *)

val active : t -> int
(** Open lifecycles. *)
