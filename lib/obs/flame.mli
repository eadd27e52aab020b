(** Wait-time flamegraphs: blocked time folded along the instance-graph
    path.

    Every {!Profile} wait span becomes one stack — the resource's
    node path, split by {!Resource.steps} (entry point down to the inner
    lockable unit), plus a final
    [mode:<M>] frame — weighted by the span's blocked duration; equal
    stacks merge. {!print} emits folded-stacks text ([frame;frame;... N]
    per line, stacks sorted), the input format of flamegraph.pl, so
    [colock flame trace.jsonl] pipes straight into standard tooling. *)

type t

val label : t -> string option
val stacks : t -> (string list * float) list
(** Merged [(frames, weight)] stacks, sorted by frames; zero-duration
    spans are dropped. *)

val total : t -> float
(** Total blocked time over all spans — equals
    [Profile.total_blocked]. *)

val of_spans : ?label:string -> Profile.span list -> t
val of_report : Profile.report -> t

val pp : Format.formatter -> t -> unit
(** Expects a vertical box (see {!print}). *)

val print : out_channel -> t -> unit
