(** JSON-lines event sink: one self-describing JSON object per line
    (fields [event], [time], then the event's own payload), suitable for
    [jq], spreadsheet import, replay into the {!Trace} exporter, or offline
    analysis via {!Profile}. *)

val write : out_channel -> Event.t -> unit
(** Writes one complete line and flushes: a run aborted mid-stream leaves
    only whole lines behind. *)

val handler : ?meter:Sink.meter -> out_channel -> Event.t -> unit
(** Partial application form for {!Sink.create}. Like {!write}, it writes
    one complete line per event and flushes after every line. Each handler
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

val read_events : in_channel -> Event.t list * string list
(** {!iter} materialised: the decoded events and the diagnostics. *)

val load : string -> Event.t list * string list
(** {!read_events} on a file path; the channel is closed either way. *)

val with_file : string -> (in_channel -> 'a) -> 'a
(** Opens [path], runs the callback (typically around {!iter}), and
    closes the channel even on exceptions. *)
