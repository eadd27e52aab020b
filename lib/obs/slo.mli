(** Declarative service-level objectives, evaluated live against the
    {!Monitor}'s sliding windows.

    Config syntax (one rule per line, ['#'] comments):
    {v
    p99_wait < 40            # windowed lock-wait quantile
    p95_wait{lu=HoLU} < 25   # one lockable-unit kind only
    abort_rate < 0.25        # aborts / (aborts + commits), windowed
    deadlock_rate < 0.01     # deadlocks per clock unit, windowed
    wait_rate < 2.5          # completed waits per clock unit, windowed
    throughput > 0.05        # commits per clock unit, windowed
    v}

    A {!watch} evaluates every rule once per window and emits one
    [Event.Slo_breach] per violated rule through the run's sink — so
    breaches land in captures, JSONL files, the monitor and any trace a
    later [colock analyze] reads — and tallies them for a nonzero exit. *)

type comparator = Lt | Le | Gt | Ge

type signal =
  | Wait_quantile of { q : float; lu : string option }
  | Abort_rate
  | Deadlock_rate
  | Wait_rate
  | Throughput

type rule = {
  text : string;
      (** normalized source text, carried as [Slo_breach.rule] *)
  signal : signal;
  cmp : comparator;
  threshold : float;
}

type t

val rules : t -> rule list

val of_rules : rule list -> t
(** A rule set assembled by another front end (e.g. the inline [slo]
    directives of {!Workload.Dsl} scenario files). *)

val parse : ?file:string -> string -> (t, string) result
(** Parses a whole config text; the error aggregates every bad line as
    ["FILE:N: ..."] (or ["line N: ..."] without [?file]) diagnostics,
    each naming the offending token — unknown signal, bad comparator,
    a threshold that is not a finite number, or a malformed [{lu=...}]
    selector. *)

val parse_rule : ?file:string -> ?line:int -> string -> (rule, string) result
(** One rule line; [?file]/[?line] position the diagnostic the same way
    {!parse} does. *)

val load : string -> (t, string) result
(** {!parse} on a file's contents, diagnostics prefixed with the path. *)

type verdict = { rule : rule; value : float; ok : bool }

val evaluate : t -> Monitor.t -> verdict list
(** One verdict per rule against the monitor's current windows. *)

val measure : Monitor.t -> signal -> float
(** The current value of one signal. *)

type watch

val watch : sink:Sink.t -> t -> Monitor.t -> watch
(** A periodic evaluator, once per the monitor's window span: attach
    {!handler} to the run's sink after the monitor's handler. Breach events
    are emitted through [sink]. *)

val handler : watch -> Event.t -> unit
(** Evaluates whenever an event's timestamp crosses the next period
    boundary; ignores [Slo_breach] events (no feedback loops) and resets on
    [Run_meta]. *)

val finish : watch -> time:float -> int
(** Final evaluation at end of run (the tail window would otherwise go
    unchecked); returns the total breach count. *)

val breach_count : watch -> int
(** Breaches tallied so far in the current run. *)

val watched : watch -> t
(** The rule set behind a watch (e.g. to re-{!evaluate} for a display). *)
