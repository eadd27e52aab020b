(** Causal blame attribution: who caused each blocked tick.

    Complements {!Profile} (which says *where* blocked time lands on the
    lock graph) with *who* it lands on. A projection of the {!Spans} fold:
    every wait span is segmented at blocker-set changes (a holder releasing
    the resource, a re-emitted [Lock_waited] reporting a fresh granted
    group) and each segment is split equally across its live blockers.
    Shares of one wait sum to the wait's duration, so blame over any
    partition equals {!Profile}'s [total_blocked] — conservation is exact up
    to float rounding of the equal splits, which is folded back into the
    largest share per wait.

    Works online ({!handle} as a sink handler, then {!finish}) and offline
    (the same fold per run of a JSONL trace, through {!Jsonl.read_runs}). *)

type agent = Spans.agent =
  | Txn of int  (** a blocking transaction *)
  | Queue
      (** the FIFO-fairness rule itself: nobody incompatible holds the
          resource, the request just queues behind earlier waiters *)

val agent_label : agent -> string
(** ["T7"] or ["queue"]. *)

type outcome = Spans.outcome = Granted | Aborted of string | Unfinished

type share = {
  sh_agent : agent;
  sh_mode : string option;
      (** the mode the blocker held when first charged; [None] when the
          trace never revealed it *)
  sh_blame : float;
}

type wait = {
  w_txn : int;
  w_resource : string;
  w_mode : string;
  w_lu : Event.lu option;
  w_start : float;
  w_finish : float;
  w_outcome : outcome;
  w_shares : share list;
      (** blame descending (ties by agent); sums to the wait's duration *)
}

val duration : wait -> float

type txn_blame = {
  x_txn : int;
  x_begin : float option;
  x_end : (string * float) option;
      (** [("commit" | abort reason, time)]; [None] when still running *)
  x_waits : wait list;  (** stream order *)
  x_blocked : float;  (** own blocked time: sum of [x_waits] durations *)
  x_caused : float;  (** blame charged to this transaction by others *)
}

type blocker_stat = { k_agent : agent; k_blame : float; k_waits : int }

type report = {
  label : string option;
  events : int;
  total_blocked : float;
  total_blamed : float;
      (** sum of every share; equals [total_blocked] (conservation) *)
  wait_count : int;
  waits : wait list;  (** stream order *)
  txns : txn_blame list;  (** txn ascending *)
  blockers : blocker_stat list;  (** blame descending, ties by agent *)
}

type t
(** An online accumulator. *)

val create : unit -> t

val handle : t -> Event.t -> unit
(** Sink-handler form: attach with {!Sink.attach}. *)

val finish : ?label:string -> t -> report
(** Closes still-open waits as [Unfinished] at the last seen timestamp. *)

val of_events : ?label:string -> Event.t list -> report

val to_json : report -> Json.t

val pp : ?top:int -> Format.formatter -> report -> unit
(** Report summary with the top blockers table (default top 10). Expects a
    vertical box (see {!print}). *)

val explain : Format.formatter -> report -> txn:int -> unit
(** One transaction's span tree: begin, each wait with its per-holder blame
    shares, commit/abort — the payload of [colock explain --txn]. *)

val print : ?top:int -> out_channel -> report -> unit
val print_explain : out_channel -> report -> txn:int -> unit
