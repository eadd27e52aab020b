(** JSON-lines event traces: one self-describing JSON object per line
    (fields [event], [time], then the event's own payload), suitable for
    [jq], spreadsheet import, replay into the {!Trace} exporter, or offline
    analysis via {!Profile}. {!read_runs} is the one reader that splits a
    trace into its runs. *)

val handler : ?meter:Sink.meter -> out_channel -> Event.t -> unit
(** Partial application form for {!Sink.create}. It writes one complete
    line per event and flushes after every line, so a run aborted
    mid-stream leaves only whole lines behind. Each handler
    owns one line buffer, reused for every event, so a handler must not run
    on two domains at once (emit under a lock, as [Txn.Blocking] does).
    The caller owns the channel (and its close). [?meter] accounts bytes
    written (see {!Sink.bytes_written}). *)

val write_events : out_channel -> Event.t list -> unit
(** Batch form: encodes every line into one buffer, writes it, flushes
    once. *)

val iter : ?on_error:(string -> unit) -> in_channel -> (Event.t -> unit) -> unit
(** Streams a JSONL channel line by line in constant memory, calling the
    callback per decoded event. Blank lines are skipped; each malformed
    line becomes a ["line N: ..."] diagnostic passed to [?on_error]
    (dropped by default) instead of poisoning the whole read. A final line
    with no terminating newline that fails to decode — the signature of a
    crash-cut capture — is diagnosed as ["truncated final line at byte
    OFFSET"] so the complete prefix stays loadable and the cut point is
    named. *)

val load : string -> Event.t list * string list
(** {!iter} over a file path, materialised: the decoded events, in file
    order, and the diagnostics. The channel is closed either way. *)

val with_file : string -> (in_channel -> 'a) -> 'a
(** Opens [path], runs the callback (typically around {!iter}), and
    closes the channel even on exceptions. *)

type summary = {
  decoded : int;  (** events decoded, [Run_meta] lines included *)
  delimited : bool;  (** whether any [Run_meta] line was seen *)
}

val read_runs :
  ?on_error:(string -> unit) ->
  string ->
  start:(string -> 'run) ->
  push:('run -> Event.t -> unit) ->
  flush:(string -> 'run -> unit) ->
  summary
(** [read_runs path ~start ~push ~flush] streams the trace at [path] in
    constant memory and splits it at its [Run_meta] lines: [start label]
    opens a run's accumulator when the run's first event arrives, [push]
    feeds it every event but the delimiters, and [flush label run] closes
    it, in file order. A run takes the label of the [Run_meta] line before
    it; events that no [Run_meta] line opens form a run labelled
    ["run-0"]. A delimiter with no events after it still flushes an empty
    run. Only the open run is held.

    [?on_error] receives {!iter}'s diagnostic for each malformed line, and
    a note that the whole trace is labelled ["run-0"] just before that run
    is flushed, when the file holds events but no [Run_meta] line. *)
