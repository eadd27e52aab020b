(* The trace readers: the live dashboard, the contention, certification
   and blame reports, flame stacks and the wait-time diff over JSONL
   traces, and the run-history trajectories. *)

open Cmdliner
open Plumbing

(* ------------------------------------------------------------- dashboard *)

(* One [colock top] frame as a string: plain text under [--once] (golden
   testable), ANSI-highlighted live. *)
let render_dashboard ?(color = false) ?(top = 8) monitor watch =
  let buffer = Buffer.create 1024 in
  let add format = Printf.ksprintf (Buffer.add_string buffer) format in
  let bold text = if color then "\027[1m" ^ text ^ "\027[0m" else text in
  let red text = if color then "\027[31m" ^ text ^ "\027[0m" else text in
  let registry = Obs.Monitor.registry monitor in
  let gauge name = int_of_float (Obs.Registry.gauge_value registry name) in
  let window name = Obs.Registry.find_window registry name in
  let label =
    match Obs.Monitor.label monitor with
    | Some label -> label
    | None -> "(unlabelled run)"
  in
  add "%s\n" (bold (Printf.sprintf "colock top — %s" label));
  add "now %.0f  elapsed %.0f  throughput %.4f commits/tick\n"
    (Obs.Monitor.now monitor)
    (Obs.Monitor.elapsed monitor)
    (Obs.Monitor.throughput monitor);
  add "active txns %d  lock entries %d  wait queue %d\n"
    (gauge "active_txns") (gauge "lock_entries") (gauge "wait_queue_depth");
  (match window "window.lock_wait" with
   | Some waits ->
     add
       "window wait  p50 %.1f  p95 %.1f  p99 %.1f  max %.1f  (%d waits, \
        %.3f/tick)\n"
       (Obs.Window.quantile waits 0.50)
       (Obs.Window.quantile waits 0.95)
       (Obs.Window.quantile waits 0.99)
       (Obs.Window.max_value waits) (Obs.Window.count waits)
       (Obs.Window.rate waits)
   | None -> ());
  let window_line name window =
    add "window %-9s %4d  (%.3f/tick)\n" name (Obs.Window.count window)
      (Obs.Window.rate window)
  in
  List.iter
    (fun (title, name) ->
      match window name with
      | Some window -> window_line title window
      | None -> ())
    [ ("grants", "window.grants"); ("commits", "window.commits");
      ("aborts", "window.aborts"); ("deadlocks", "window.deadlocks") ];
  (match
     List.filter (fun (_, count) -> count > 0) (Obs.Monitor.aborts monitor)
   with
   | [] -> ()
   | aborts ->
     add "aborts: %s\n"
       (String.concat "  "
          (List.map
             (fun (reason, count) -> Printf.sprintf "%s %d" reason count)
             aborts)));
  (match Obs.Monitor.hot_resources ~top monitor with
   | [] -> ()
   | hot ->
     add "%s\n" (bold "hot resources                    blocked  waits  lu");
     List.iter
       (fun (resource, stat) ->
         add "  %-30s %7.1f  %5d  %s\n" resource
           stat.Obs.Monitor.r_blocked stat.Obs.Monitor.r_waits
           (match stat.Obs.Monitor.r_lu with
            | Some { Obs.Event.lu_kind; _ } -> lu_kind
            | None -> "-"))
       hot);
  (match watch with
   | None -> ()
   | Some watch ->
     let verdicts =
       Obs.Slo.evaluate (Obs.Slo.watched watch) monitor
     in
     let breaches = Obs.Slo.breach_count watch in
     add "%s\n"
       (bold
          (Printf.sprintf "SLO (%d rule(s), %d breach(es) this run)"
             (List.length verdicts) breaches));
     List.iter
       (fun { Obs.Slo.rule; value; ok } ->
         let status = if ok then "ok    " else red "BREACH" in
         add "  %s %s (value %g)\n" status rule.Obs.Slo.text value)
       verdicts);
  Buffer.contents buffer


(* -------------------------------------------------------------------- top *)

let top_cmd =
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render one plain-text frame per run in the trace and \
                   exit (deterministic; no ANSI escapes).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Seconds between live screen refreshes.")
  in
  let rate =
    Arg.(value & opt float 1000.0
         & info [ "rate" ] ~docv:"TICKS/SEC"
             ~doc:"Replay speed: virtual ticks per wall second (0 = replay \
                   instantly).")
  in
  let top = top_arg 8 ~doc:"Rows in the hot-resources panel." in
  let run () trace once interval rate top window slo_file =
    let slo = load_slo slo_file in
    (* one monitor, restarted for every run of the trace *)
    let monitor = Obs.Monitor.create ~span:window () in
    let frames = ref 0 in
    let render watch =
      if once then begin
        if !frames > 0 then print_newline ();
        print_string (render_dashboard ~top monitor watch);
        incr frames
      end
      else begin
        print_string "\027[2J\027[H";
        print_string (render_dashboard ~color:true ~top monitor watch);
        flush stdout
      end
    in
    (* --once replays instantly and renders each run's frame when the run
       ends; live, the replay sleeps out the virtual time between events
       and redraws every [interval] seconds *)
    let next_render = ref (Unix.gettimeofday ()) and last = ref 0.0 in
    let replay (sink, watch) event =
      let time = event.Obs.Event.time in
      if not once then begin
        let delta = time -. !last in
        if delta > 0.0 && rate > 0.0 then Unix.sleepf (delta /. rate);
        last := time
      end;
      Obs.Sink.emit_at sink ~time event.Obs.Event.kind;
      if (not once) && Unix.gettimeofday () >= !next_render then begin
        render watch;
        next_render := Unix.gettimeofday () +. interval
      end
    in
    read_runs trace
      ~start:(fun label ->
        let sink = Obs.Sink.create [] in
        last := 0.0;
        (sink, watch_live sink monitor ~label slo))
      ~push:replay
      ~flush:(fun _label (_sink, watch) ->
        Option.iter
          (fun watch ->
            ignore (Obs.Slo.finish watch ~time:(Obs.Monitor.now monitor) : int))
          watch;
        render watch);
    0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"A terminal dashboard over a JSONL event trace: throughput, \
             windowed wait quantiles, abort taxonomy, hot resources and SLO \
             status, refreshed as the trace replays.")
    Term.(const run $ setup_logs $ trace_pos_arg $ once $ interval $ rate
          $ top $ window_arg $ slo_arg)

(* ---------------------------------------------------------------- analyze *)

(* [add] takes each run's contention profile as the run ends. *)
let profile_runs path add =
  read_runs path
    ~start:(fun _label -> Obs.Profile.create ())
    ~push:Obs.Profile.handle
    ~flush:(fun label profile -> add (Obs.Profile.finish ~label profile))

(* One contention profile per run of the trace at [path]. *)
let profiles path =
  let reports = ref [] in
  profile_runs path (fun report -> reports := report :: !reports);
  List.rev !reports

let analyze_cmd =
  let json =
    json_flag
      ~doc:"Emit the contention report(s) as JSON instead of tables."
  in
  let top =
    top_arg 10
      ~doc:"Rows to show in the hot-resource and critical-path tables \
            (text output only)."
  in
  let run () trace json top =
    let add, close =
      report_printer ~json ~to_json:Obs.Profile.to_json
        (Obs.Profile.print ~top stdout)
    in
    profile_runs trace add;
    close ();
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Fold a JSONL event trace into a contention report: blocked \
             time attributed to lockable-unit levels (BLU/HoLU/HeLU), graph \
             depths, hot resources, a waiter-by-holder conflict matrix, \
             abort causes and per-transaction wait critical paths.")
    Term.(const run $ setup_logs $ trace_pos_arg $ json $ top)

(* ---------------------------------------------------------------- certify *)

let certify_cmd =
  let json =
    json_flag ~doc:"Emit the certificate(s) as JSON instead of text."
  in
  let dot_flag =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the serialization graph(s) as Graphviz DOT, with \
                   the counterexample cycle's nodes and edges in red.")
  in
  let run () trace json dot =
    let modes = Lockmgr.Lock_mode.certify_modes in
    let violations = ref 0 in
    let add, close =
      report_printer ~json ~to_json:Obs.Certify.to_json
        (if dot then Obs.Dot.print stdout else Obs.Certify.print stdout)
    in
    read_runs trace
      ~start:(fun _label -> Obs.Certify.create ~modes ())
      ~push:Obs.Certify.handle
      ~flush:(fun label certifier ->
        let cert = Obs.Certify.finish ~label certifier in
        violations := !violations + List.length cert.Obs.Certify.violations;
        add cert);
    close ();
    if !violations > 0 then exit_slo_breach else 0
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Certify a JSONL event trace, one certificate per \
             $(b,Run_meta)-delimited run: conflict-serializability (the \
             serialization graph over committed transactions must be \
             acyclic; a minimal counterexample cycle is reported \
             otherwise), 2PL membership (no new privilege after the first \
             uncovered release), and hierarchy compliance per the paper's \
             rules 1-4' (ancestor intentions cover every inner-unit grant; \
             escalations match the supremum matrix). Exit 3 on any \
             violation, like an SLO breach.")
    Term.(const run $ setup_logs $ trace_pos_arg $ json $ dot_flag)

(* --------------------------------------------------------- explain/flame *)

let explain_cmd =
  let txn_arg =
    Arg.(value & opt (some int) None
         & info [ "txn" ] ~docv:"ID"
             ~doc:"Explain one transaction: its span tree (begin, each wait \
                   with per-blocker blame shares, commit/abort). Without \
                   it, print the per-run blame summaries.")
  in
  let json =
    json_flag ~doc:"Emit the blame report(s) as JSON instead of text."
  in
  let top =
    top_arg 10
      ~doc:"Rows in the top-blockers table (summary text output only)."
  in
  let run () trace txn json top =
    let blame_runs add =
      read_runs trace
        ~start:(fun _label -> Obs.Blame.create ())
        ~push:Obs.Blame.handle
        ~flush:(fun label blame -> add (Obs.Blame.finish ~label blame))
    in
    match txn with
    | Some txn when not json ->
      let found = ref false in
      blame_runs (fun report ->
          if
            List.exists
              (fun { Obs.Blame.x_txn; _ } -> x_txn = txn)
              report.Obs.Blame.txns
          then begin
            found := true;
            Obs.Blame.print_explain stdout report ~txn
          end);
      if !found then 0
      else begin
        Fmt.epr "colock: %s: transaction T%d not in trace@." trace txn;
        1
      end
    | Some _ | None ->
      let add, close =
        report_printer ~json ~to_json:Obs.Blame.to_json
          (Obs.Blame.print ~top stdout)
      in
      blame_runs add;
      close ();
      0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Causal blame for a JSONL event trace: every wait split across \
             the holders that caused it, summed per blocker. With \
             $(b,--txn), one transaction's full span tree.")
    Term.(const run $ setup_logs $ trace_pos_arg $ txn_arg $ json $ top)

let flame_cmd =
  let run () trace =
    let flames = List.map Obs.Flame.of_report (profiles trace) in
    List.iteri
      (fun index flame ->
        if index > 0 then print_newline ();
        (match Obs.Flame.label flame with
         | Some label when List.length flames > 1 ->
           (* headers only when several runs share the stream; a single
              run stays pure folded-stacks for flamegraph.pl *)
           Printf.printf "# run: %s\n" label
         | Some _ | None -> ());
        Obs.Flame.print stdout flame)
      flames;
    0
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:"Fold a JSONL event trace's blocked time into flamegraph.pl \
             folded-stacks lines: one stack per instance-graph path (entry \
             point down to the inner lockable unit) with the requested \
             mode as leaf, weighted by blocked ticks.")
    Term.(const run $ setup_logs $ trace_pos_arg)

(* -------------------------------------------------------------------- why *)

let why_cmd =
  let base_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASE"
             ~doc:"The known-good JSONL event trace.")
  in
  let cand_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CAND"
             ~doc:"The candidate JSONL event trace whose wait-time delta \
                   against $(b,BASE) wants explaining.")
  in
  let json =
    json_flag ~doc:"Emit the differential report(s) as JSON instead of tables."
  in
  let top =
    top_arg 10
      ~doc:"Rows in the resource, conflict-cell and blocker delta tables \
            (text output only; ties break lexicographically so the cut is \
            deterministic)."
  in
  let run_arg =
    Arg.(value & opt (some string) None
         & info [ "run" ] ~docv:"LABEL"
             ~doc:"Diff only the run labelled $(docv) (multi-run traces).")
  in
  let run () base cand json top run_label =
    let pairing =
      Obs.Diff.pair_reports ~base:(profiles base) ~cand:(profiles cand)
    in
    let selected =
      match run_label with
      | None -> Some pairing
      | Some wanted -> (
        match
          List.filter
            (fun (report : Obs.Diff.report) -> report.label = Some wanted)
            pairing.Obs.Diff.pairs
        with
        | [] -> None
        | pairs -> Some { Obs.Diff.pairs; only_base = []; only_cand = [] })
    in
    match selected with
    | None ->
      let wanted = Option.value ~default:"" run_label in
      let known =
        List.sort_uniq String.compare
          (List.filter_map
             (fun (report : Obs.Diff.report) -> report.label)
             pairing.Obs.Diff.pairs
           @ pairing.Obs.Diff.only_base @ pairing.Obs.Diff.only_cand)
      in
      Fmt.epr "colock: run %S not paired between %s and %s (runs: %s)@."
        wanted base cand
        (if known = [] then "none" else String.concat ", " known);
      1
    | Some pairing ->
      if json then print_json (Obs.Diff.pairing_to_json pairing)
      else begin
        let add, _close =
          report_printer ~json:false ~to_json:Obs.Diff.to_json
            (Obs.Diff.print ~top stdout)
        in
        List.iter add pairing.Obs.Diff.pairs;
        Obs.Diff.print_drift stdout pairing
      end;
      0
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Explain a performance delta: diff two JSONL event traces and \
             attribute the wait-time change across lockable-unit levels, \
             graph depths, resources, conflict cells and blockers — every \
             table sums exactly to the total delta, with one-sided runs \
             and keys reported as explicit drift.")
    Term.(const run $ setup_logs $ base_arg $ cand_arg $ json $ top $ run_arg)

(* ----------------------------------------------------------------- trends *)

let trends_cmd =
  let history_arg =
    Arg.(value & pos 0 string "BENCH_HISTORY.jsonl"
         & info [] ~docv:"HISTORY"
             ~doc:"The append-only run-history store (one versioned JSON \
                   record per line), as appended by $(b,bench/main) and \
                   $(b,colock bench diff).")
  in
  let json =
    json_flag ~doc:"Emit the trajectories as JSON instead of text."
  in
  let metric_arg =
    Arg.(value & opt (some string) None
         & info [ "metric" ] ~docv:"KEY"
             ~doc:"Render only trajectories of metric $(docv).")
  in
  let run () path json metric =
    let records, diagnostics = Bench.History.load path in
    List.iter
      (fun message -> Fmt.epr "colock: %s: %s@." path message)
      diagnostics;
    if records = [] then begin
      Fmt.epr "colock: %s: no history records@." path;
      1
    end
    else begin
      let trends =
        List.filter
          (fun trend ->
            match metric with
            | None -> true
            | Some key -> trend.Bench.History.t_metric = key)
          (Bench.History.trends records)
      in
      if trends = [] then begin
        Fmt.epr "colock: %s: no trajectory for metric %s@." path
          (Option.value ~default:"?" metric);
        1
      end
      else begin
        let add, close =
          report_printer ~json ~to_json:Bench.History.trend_to_json
            (fun trend ->
              let open Bench.History in
              Printf.printf
                "%s %s %s: %d point(s), median %g, band \xc2\xb1%g, %d \
                 anomaly(ies)\n"
                trend.t_source trend.t_label trend.t_metric
                (List.length trend.t_points)
                trend.t_median trend.t_band trend.t_anomalies;
              List.iter
                (fun point ->
                  Printf.printf "  #%-3d %14g  ewma %14g%s\n" point.pt_seq
                    point.pt_value point.pt_ewma
                    (if point.pt_anomalous then "  ANOMALY" else ""))
                trend.t_points)
        in
        List.iter add trends;
        close ();
        0
      end
    end
  in
  Cmd.v
    (Cmd.info "trends"
       ~doc:"Render the run-history store as per-metric trajectories: one \
             EWMA-smoothed series per (source, label, metric), with points \
             outside a scaled-MAD band flagged as anomalies — the perf \
             trajectory across commits, not just the latest gate verdict.")
    Term.(const run $ setup_logs $ history_arg $ json $ metric_arg)

