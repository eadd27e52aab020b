(* What every colock command shares: logging, converters, output files and
   exit codes, the flags several commands declare, the live monitor
   set-up, and the trace reader with its output switch. *)

open Cmdliner

let setup_logs =
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Log lock-protocol and lock-table decisions to stderr.")
  in
  let setup verbose =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(const setup $ verbose)

(* A converter from a parser that reports errors as plain messages. *)
let conv parse print =
  Arg.conv
    ((fun text -> Result.map_error (fun message -> `Msg message) (parse text)),
     print)

let with_out path f =
  if String.equal path "-" then f stdout
  else
    match open_out path with
    | channel ->
      Fun.protect ~finally:(fun () -> close_out channel) (fun () -> f channel)
    | exception Sys_error message ->
      Fmt.epr "colock: cannot write output: %s@." message;
      exit 1

(* The run can end with SLO breaches (exit 3) — distinct from usage errors
   (124/125) and ordinary failures (1). *)
let exit_slo_breach = 3

let json_flag ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let top_arg default ~doc =
  Arg.(value & opt int default & info [ "top" ] ~docv:"N" ~doc)

(* ------------------------------------------------- live monitoring common *)

let window_arg =
  let ticks =
    conv
      (fun text ->
        match float_of_string_opt text with
        | Some ticks when Float.is_finite ticks && ticks > 0.0 -> Ok ticks
        | Some _ | None ->
          Error (Printf.sprintf "%S is not a finite positive tick count" text))
      Format.pp_print_float
  in
  Arg.(value & opt ticks 200.0
       & info [ "window" ] ~docv:"TICKS"
           ~doc:"Sliding-window length (virtual clock ticks) behind the \
                 windowed rates, wait quantiles and SLO evaluation.")

let slo_arg =
  Arg.(value & opt (some file) None
       & info [ "slo" ] ~docv:"FILE"
           ~doc:"Evaluate SLO rules from $(docv) (one per line, e.g. \
                 $(b,p99_wait < 40), $(b,abort_rate < 0.25), optionally \
                 $(b,p95_wait{lu=HoLU} < 25)) once per window; every \
                 violation emits an slo_breach event into the captures.")

let load_slo = function
  | None -> None
  | Some path ->
    (match Obs.Slo.load path with
     | Ok slo -> Some slo
     | Error message ->
       (* diagnostics already carry "path:line:" positions *)
       Fmt.epr "colock: %s@." message;
       exit 1)

(* Starts a run of [monitor] labelled [label], fed by [sink], with the SLO
   rules watched over it; the watch emits its breaches into [sink]. *)
let watch_live sink monitor ~label slo =
  Obs.Monitor.begin_run monitor ~label;
  Obs.Sink.attach sink (Obs.Monitor.handle monitor);
  Option.map
    (fun slo ->
      let watch = Obs.Slo.watch ~sink slo monitor in
      Obs.Sink.attach sink (Obs.Slo.handler watch);
      watch)
    slo

let print_verdicts ~label verdicts =
  List.iter
    (fun { Obs.Slo.rule; value; ok } ->
      Printf.printf "%-22s %s %s (value %g)\n" label
        (if ok then "ok    " else "BREACH")
        rule.Obs.Slo.text value)
    verdicts

(* ------------------------------------------------------------ trace input *)

let trace_pos_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"TRACE"
           ~doc:"A JSONL event trace, as written by $(b,colock simulate \
                 --jsonl) or by $(b,colock soak) for a failing run.")

(* Streams a JSONL trace run by run through [Obs.Jsonl.read_runs] (soak
   traces run to millions of lines), printing its diagnostics as FILE:
   message; a trace with no decodable event exits 1. *)
let read_runs path ~start ~push ~flush =
  let summary =
    Obs.Jsonl.read_runs path
      ~on_error:(fun message -> Fmt.epr "colock: %s: %s@." path message)
      ~start ~push ~flush
  in
  if summary.Obs.Jsonl.decoded = 0 then begin
    Fmt.epr "colock: %s: no decodable events@." path;
    exit 1
  end

let print_json json =
  Obs.Json.output stdout json;
  print_newline ()

(* The output switch of the commands that print one report per run: under
   --json the reports are collected and printed as one JSON list at the
   end, otherwise each is printed as text when it arrives, the reports
   separated by blank lines. Returns the function taking a report and the
   one ending the output. *)
let report_printer ~json ~to_json print =
  let printed = ref 0 and collected = ref [] in
  let add report =
    if json then collected := to_json report :: !collected
    else begin
      if !printed > 0 then print_newline ();
      incr printed;
      print report
    end
  in
  let close () =
    if json then print_json (Obs.Json.List (List.rev !collected))
  in
  (add, close)
