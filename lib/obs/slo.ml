(* Declarative service-level objectives over the live monitor.

   Config syntax, one rule per line ('#' comments, blank lines skipped):

     p99_wait < 40            windowed lock-wait quantile (p50/p95/p99)
     p95_wait{lu=HoLU} < 25   the same, one lockable-unit kind only
     abort_rate < 0.25        aborts / (aborts + commits) in the window
     deadlock_rate < 0.01     deadlocks per clock unit in the window
     wait_rate < 2.5          completed waits per clock unit in the window
     throughput > 0.05        commits per clock unit in the window

   Rules are evaluated once per window (the monitor's span): each boundary
   crossing, every violated rule emits one [Slo_breach] event through the
   run's sink — into the capture, the JSONL file, the monitor itself — and
   is tallied so the CLI can exit nonzero. *)

type comparator = Lt | Le | Gt | Ge

type signal =
  | Wait_quantile of { q : float; lu : string option }
  | Abort_rate
  | Deadlock_rate
  | Wait_rate
  | Throughput

type rule = {
  text : string;  (* normalized source line, the [Slo_breach.rule] payload *)
  signal : signal;
  cmp : comparator;
  threshold : float;
}

type t = { rules : rule list }

let rules slo = slo.rules
let of_rules rules = { rules }

let comparator_text = function
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let holds cmp value threshold =
  match cmp with
  | Lt -> value < threshold
  | Le -> value <= threshold
  | Gt -> value > threshold
  | Ge -> value >= threshold

(* ------------------------------------------------------------- parsing *)

let unknown_signal text =
  Error
    (Printf.sprintf
       "unknown signal %S (expected p50_wait/p95_wait/p99_wait \
        [optionally {lu=KIND}], abort_rate, deadlock_rate, wait_rate or \
        throughput)"
       text)

let signal_of_string text =
  let quantile q lu = Ok (Wait_quantile { q; lu }) in
  match String.index_opt text '{' with
  | None -> (
    match text with
    | "p50_wait" -> quantile 0.50 None
    | "p95_wait" -> quantile 0.95 None
    | "p99_wait" -> quantile 0.99 None
    | "abort_rate" -> Ok Abort_rate
    | "deadlock_rate" -> Ok Deadlock_rate
    | "wait_rate" -> Ok Wait_rate
    | "throughput" -> Ok Throughput
    | _ -> unknown_signal text)
  | Some brace -> (
    let base = String.sub text 0 brace in
    let selector = String.sub text brace (String.length text - brace) in
    let length = String.length selector in
    let kind =
      (* {lu=KIND} with a nonempty KIND *)
      if length >= 6
         && String.sub selector 0 4 = "{lu="
         && selector.[length - 1] = '}'
      then Some (String.sub selector 4 (length - 5))
      else None
    in
    match kind with
    | None ->
      Error
        (Printf.sprintf
           "bad selector %S after %S (expected {lu=KIND}, e.g. \
            p95_wait{lu=HoLU})"
           selector base)
    | Some kind -> (
      match base with
      | "p50_wait" -> quantile 0.50 (Some kind)
      | "p95_wait" -> quantile 0.95 (Some kind)
      | "p99_wait" -> quantile 0.99 (Some kind)
      | "abort_rate" | "deadlock_rate" | "wait_rate" | "throughput" ->
        Error
          (Printf.sprintf
             "signal %S takes no {lu=...} selector (only the wait \
              quantiles do)"
             base)
      | _ -> unknown_signal base))

let signal_text = function
  | Wait_quantile { q; lu } ->
    let base =
      if q = 0.50 then "p50_wait" else if q = 0.95 then "p95_wait"
      else "p99_wait"
    in
    (match lu with
     | None -> base
     | Some kind -> Printf.sprintf "%s{lu=%s}" base kind)
  | Abort_rate -> "abort_rate"
  | Deadlock_rate -> "deadlock_rate"
  | Wait_rate -> "wait_rate"
  | Throughput -> "throughput"

let parse_rule_text line =
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun token -> token <> "")
  in
  match tokens with
  | [ signal; cmp; threshold ] -> (
    let ( let* ) = Result.bind in
    let* signal = signal_of_string signal in
    let* cmp =
      match cmp with
      | "<" -> Ok Lt
      | "<=" -> Ok Le
      | ">" -> Ok Gt
      | ">=" -> Ok Ge
      | other -> Error (Printf.sprintf "unknown comparator %S" other)
    in
    let* threshold =
      match float_of_string_opt threshold with
      | Some value when Float.is_finite value -> Ok value
      | Some _ | None ->
        Error (Printf.sprintf "invalid threshold %S" threshold)
    in
    let text =
      Printf.sprintf "%s %s %g" (signal_text signal) (comparator_text cmp)
        threshold
    in
    Ok { text; signal; cmp; threshold })
  | _ -> Error "expected `SIGNAL <|<=|>|>= NUMBER`"

(* "FILE:N: ..." with a file, "line N: ..." without — every diagnostic
   points at its source. *)
let position ?file line =
  match file with
  | Some file -> Printf.sprintf "%s:%d" file line
  | None -> Printf.sprintf "line %d" line

let parse_rule ?file ?line text =
  match parse_rule_text text with
  | Ok _ as ok -> ok
  | Error message -> (
    match line with
    | None -> Error message
    | Some line ->
      Error (Printf.sprintf "%s: %s" (position ?file line) message))

let parse ?file text =
  let lines = String.split_on_char '\n' text in
  let rules, errors =
    List.fold_left
      (fun (rules, errors) (number, line) ->
        let line =
          match String.index_opt line '#' with
          | None -> line
          | Some hash -> String.sub line 0 hash
        in
        let line = String.trim line in
        if line = "" then (rules, errors)
        else
          match parse_rule_text line with
          | Ok rule -> (rule :: rules, errors)
          | Error message ->
            ( rules,
              Printf.sprintf "%s: %s" (position ?file number) message
              :: errors ))
      ([], [])
      (List.mapi (fun index line -> (index + 1, line)) lines)
  in
  match errors with
  | [] -> Ok { rules = List.rev rules }
  | errors -> Error (String.concat "\n" (List.rev errors))

let load path =
  match open_in path with
  | exception Sys_error message -> Error message
  | channel ->
    let length = in_channel_length channel in
    let text = really_input_string channel length in
    close_in_noerr channel;
    parse ~file:path text

(* ---------------------------------------------------------- evaluation *)

let window_count monitor name =
  match Registry.find_window (Monitor.registry monitor) name with
  | Some window -> Window.count window
  | None -> 0

let window_rate monitor name =
  match Registry.find_window (Monitor.registry monitor) name with
  | Some window -> Window.rate window
  | None -> 0.0

let measure monitor = function
  | Wait_quantile { q; lu } ->
    let name =
      match lu with
      | None -> "window.lock_wait"
      | Some kind -> Printf.sprintf "window.lock_wait{lu=\"%s\"}" kind
    in
    (match Registry.find_window (Monitor.registry monitor) name with
     | Some window -> Window.quantile window q
     | None -> 0.0)
  | Abort_rate ->
    let aborts = window_count monitor "window.aborts" in
    let commits = window_count monitor "window.commits" in
    if aborts + commits = 0 then 0.0
    else float_of_int aborts /. float_of_int (aborts + commits)
  | Deadlock_rate -> window_rate monitor "window.deadlocks"
  | Wait_rate -> window_rate monitor "window.lock_wait"
  | Throughput -> window_rate monitor "window.commits"

type verdict = { rule : rule; value : float; ok : bool }

let evaluate slo monitor =
  List.map
    (fun rule ->
      let value = measure monitor rule.signal in
      { rule; value; ok = holds rule.cmp value rule.threshold })
    slo.rules

let breaches_of verdicts = List.filter (fun verdict -> not verdict.ok) verdicts

(* ------------------------------------------------------------- watching *)

type watch = {
  slo : t;
  monitor : Monitor.t;
  sink : Sink.t;
  every : float;
  mutable next_eval : float option;  (* None until the first event *)
  mutable breach_total : int;
}

let watch ~sink slo monitor =
  { slo; monitor; sink; every = Monitor.span monitor; next_eval = None;
    breach_total = 0 }

let breach_count watcher = watcher.breach_total
let watched watcher = watcher.slo

let evaluate_now watcher ~time =
  let breaches = breaches_of (evaluate watcher.slo watcher.monitor) in
  watcher.breach_total <- watcher.breach_total + List.length breaches;
  List.iter
    (fun { rule; value; _ } ->
      Sink.emit_at watcher.sink ~time
        (Event.Slo_breach
           { rule = rule.text; value; threshold = rule.threshold }))
    breaches

let handler watcher =
  fun event ->
    match event.Event.kind with
    | Event.Slo_breach _ -> ()  (* never react to our own emissions *)
    | Event.Run_meta _ ->
      watcher.next_eval <- None;
      watcher.breach_total <- 0
    | _ -> (
      let time = event.Event.time in
      match watcher.next_eval with
      | None -> watcher.next_eval <- Some (time +. watcher.every)
      | Some boundary when time >= boundary ->
        evaluate_now watcher ~time;
        (* skip straight past silent gaps so one event cannot trigger a
           backlog of evaluations *)
        let rec advance boundary =
          if time >= boundary then advance (boundary +. watcher.every)
          else boundary
        in
        watcher.next_eval <- Some (advance boundary)
      | Some _ -> ())

let finish watcher ~time =
  evaluate_now watcher ~time;
  watcher.breach_total
