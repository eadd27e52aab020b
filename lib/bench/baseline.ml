(* Committed per-scenario performance baselines.

   One [run] records everything a (scenario × technique) pair measured:
   simulator outcomes, the lock manager's raw counters (under a [lock.]
   prefix) and the collector's latency-histogram rows. The whole list
   round-trips through a versioned JSON document — BENCH_scenarios.json at
   the repo root — and `colock bench diff` compares a fresh measurement
   against it through per-metric-family tolerance bands.

   Bands are deliberately asymmetric: a regression must clear
   [rel * |base| + abs] in the *bad* direction; moves in the good direction
   past the same slack report as improvements (a nudge to refresh the
   baseline) but never fail the gate. *)

type run = {
  scenario : string;
  technique : string;
  metrics : (string * float) list;
}

type t = run list

(* ----------------------------------------------------------- measuring *)

let latency_prefixes = [ "lock_wait_"; "grant_latency_"; "txn_response_" ]

let measure db graph (dsl : Workload.Dsl.t) technique =
  let collector = Obs.Collector.create () in
  let run =
    Run.setup
      ~obs:(Some (Obs.Sink.create [ Obs.Collector.handle collector ]))
      graph technique
      (Sim.Scenario.of_dsl db graph dsl)
  in
  let metrics =
    Sim.Runner.run
      ~config:(Sim.Scenario.config_of_dsl dsl)
      ~faults:(Sim.Scenario.faults_of_dsl dsl) ~table:run.table run.jobs
  in
  (* of the collector's rows only the latency quantiles are kept; its
     event counters restate the lock counters *)
  let kept (key, _) = not (String.starts_with ~prefix:"events." key) in
  { scenario = dsl.Workload.Dsl.name;
    technique = Workload.Dsl.technique_to_string technique;
    metrics =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (List.filter kept (Run.row run metrics collector)) }

let collect scenarios =
  List.concat_map
    (fun (dsl : Workload.Dsl.t) ->
      let db = Workload.Dsl.database dsl in
      let graph = Colock.Instance_graph.build db in
      List.map (measure db graph dsl) dsl.techniques)
    scenarios

(* ------------------------------------------------------------- storage *)

let format_version = 1

(* Counts stay integers in the file so baseline diffs read naturally. *)
let json_number value =
  if Float.is_integer value && Float.abs value < 1e15 then
    Obs.Json.Int (int_of_float value)
  else Obs.Json.Float value

let to_json runs =
  Obs.Json.Obj
    [ ("version", Obs.Json.Int format_version);
      ( "runs",
        Obs.Json.List
          (List.map
             (fun run ->
               Obs.Json.Obj
                 [ ("scenario", Obs.Json.String run.scenario);
                   ("technique", Obs.Json.String run.technique);
                   ( "metrics",
                     Obs.Json.Obj
                       (List.map
                          (fun (key, value) -> (key, json_number value))
                          run.metrics) ) ])
             runs) ) ]

let number_of = function
  | Obs.Json.Int value -> Some (float_of_int value)
  | Obs.Json.Float value -> Some value
  | _ -> None

let of_json json =
  let ( let* ) = Result.bind in
  let field name = function
    | Obs.Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some value -> Ok value
      | None -> Error (Printf.sprintf "baseline: missing %S field" name))
    | _ -> Error "baseline: expected an object"
  in
  let* version = field "version" json in
  let* () =
    match version with
    | Obs.Json.Int v when v = format_version -> Ok ()
    | _ ->
      Error
        (Printf.sprintf "baseline: unsupported version (want %d)"
           format_version)
  in
  let* runs = field "runs" json in
  let* entries =
    match runs with
    | Obs.Json.List entries -> Ok entries
    | _ -> Error "baseline: \"runs\" must be a list"
  in
  let parse_run entry =
    let* scenario = field "scenario" entry in
    let* technique = field "technique" entry in
    let* metrics = field "metrics" entry in
    match scenario, technique, metrics with
    | Obs.Json.String scenario, Obs.Json.String technique, Obs.Json.Obj pairs
      ->
      let* metrics =
        List.fold_left
          (fun accu (key, value) ->
            let* accu = accu in
            match number_of value with
            | Some value -> Ok ((key, value) :: accu)
            | None ->
              Error (Printf.sprintf "baseline: metric %S is not a number" key))
          (Ok []) pairs
      in
      Ok { scenario; technique; metrics = List.rev metrics }
    | _ -> Error "baseline: malformed run entry"
  in
  List.fold_left
    (fun accu entry ->
      let* accu = accu in
      let* run = parse_run entry in
      Ok (run :: accu))
    (Ok []) entries
  |> Result.map List.rev

let save path runs =
  let channel = open_out path in
  Obs.Json.output ~indent:2 channel (to_json runs);
  output_char channel '\n';
  close_out channel

let load path =
  match open_in path with
  | exception Sys_error message -> Error message
  | channel ->
    let length = in_channel_length channel in
    let text = really_input_string channel length in
    close_in_noerr channel;
    Result.bind (Obs.Json.of_string text) of_json

(* ------------------------------------------------- bands and verdicts *)

type direction = Higher_better | Lower_better

type band = { direction : direction; rel : float; abs : float }

let family key =
  if key = "committed" then "committed"
  else if key = "throughput" then "throughput"
  else if
    List.mem key [ "gave_up"; "crashed"; "deadlock_aborts"; "timeout_aborts" ]
  then "abort counts"
  else if
    List.mem key [ "makespan"; "avg_response"; "total_response"; "total_wait" ]
  then "response times"
  else if
    List.exists (fun prefix -> String.starts_with ~prefix key) latency_prefixes
  then "latency quantiles"
  else if String.starts_with ~prefix:"lock." key then "lock counters"
  else "other"

let band key =
  match family key with
  | "committed" -> { direction = Higher_better; rel = 0.02; abs = 0.5 }
  | "throughput" -> { direction = Higher_better; rel = 0.10; abs = 0.01 }
  | "abort counts" -> { direction = Lower_better; rel = 0.25; abs = 2.0 }
  | "response times" -> { direction = Lower_better; rel = 0.20; abs = 30.0 }
  | "latency quantiles" -> { direction = Lower_better; rel = 0.25; abs = 30.0 }
  | "lock counters" ->
    (* raw lock-manager counters replay deterministically under the seeded
       simulator, so they can afford a band tight enough that a 1.5x swing
       (the --perturb self-test) always clears it *)
    { direction = Lower_better; rel = 0.25; abs = 10.0 }
  | _ -> { direction = Lower_better; rel = 0.50; abs = 25.0 }

type verdict =
  | Within of { delta : float }
  | Improved of { delta : float }
  | Regressed of { delta : float; slack : float }

type finding = {
  f_scenario : string;
  f_technique : string;
  f_metric : string;
  f_base : float;
  f_fresh : float;
  f_verdict : verdict;
}

type diff = {
  findings : finding list;
  missing : (string * string) list;
  added : (string * string) list;
}

let verdict_of ~key ~base ~fresh =
  let { direction; rel; abs } = band key in
  if Float.is_nan base || Float.is_nan fresh then
    (* a metric present on only one side: always a gate failure *)
    Regressed { delta = Float.nan; slack = 0.0 }
  else
    let slack = (rel *. Float.abs base) +. abs in
    let delta = fresh -. base in
    let worse =
      match direction with
      | Lower_better -> delta
      | Higher_better -> -.delta
    in
    if worse > slack then Regressed { delta; slack }
    else if worse < -.slack then Improved { delta }
    else Within { delta }

let diff ~baseline ~fresh =
  let key run = (run.scenario, run.technique) in
  let fresh_for target =
    List.find_opt (fun run -> key run = key target) fresh
  in
  let missing =
    List.filter_map
      (fun run ->
        if fresh_for run = None then Some (key run) else None)
      baseline
  in
  let added =
    List.filter_map
      (fun run ->
        if List.exists (fun base -> key base = key run) baseline then None
        else Some (key run))
      fresh
  in
  let findings =
    List.concat_map
      (fun base_run ->
        match fresh_for base_run with
        | None -> []
        | Some fresh_run ->
          let keys =
            List.sort_uniq String.compare
              (List.map fst base_run.metrics @ List.map fst fresh_run.metrics)
          in
          List.map
            (fun metric ->
              let side run =
                Option.value ~default:Float.nan
                  (List.assoc_opt metric run.metrics)
              in
              let base = side base_run and fresh = side fresh_run in
              { f_scenario = base_run.scenario;
                f_technique = base_run.technique;
                f_metric = metric;
                f_base = base;
                f_fresh = fresh;
                f_verdict = verdict_of ~key:metric ~base ~fresh })
            keys)
      baseline
  in
  { findings; missing; added }

let regressions report =
  List.filter
    (fun finding ->
      match finding.f_verdict with Regressed _ -> true | _ -> false)
    report.findings

let improvements report =
  List.filter
    (fun finding ->
      match finding.f_verdict with Improved _ -> true | _ -> false)
    report.findings

let clean report =
  regressions report = [] && report.missing = [] && report.added = []

(* --------------------------------------------------------- JSON output *)

let finding_to_json finding =
  let { direction; _ } = band finding.f_metric in
  let verdict_tag, extras =
    match finding.f_verdict with
    | Within { delta } -> ("within", [ ("delta", Obs.Json.Float delta) ])
    | Improved { delta } -> ("improved", [ ("delta", Obs.Json.Float delta) ])
    | Regressed { delta; slack } ->
      ( "regressed",
        [ ("delta", Obs.Json.Float delta); ("slack", Obs.Json.Float slack) ] )
  in
  Obs.Json.Obj
    ([ ("scenario", Obs.Json.String finding.f_scenario);
       ("technique", Obs.Json.String finding.f_technique);
       ("metric", Obs.Json.String finding.f_metric);
       ("family", Obs.Json.String (family finding.f_metric));
       ( "direction",
         Obs.Json.String
           (match direction with
           | Higher_better -> "higher-better"
           | Lower_better -> "lower-better") );
       ("base", json_number finding.f_base);
       ("fresh", json_number finding.f_fresh);
       ("verdict", Obs.Json.String verdict_tag) ]
    @ extras)

let diff_to_json ?(all = false) report =
  let pair (scenario, technique) =
    Obs.Json.Obj
      [ ("scenario", Obs.Json.String scenario);
        ("technique", Obs.Json.String technique) ]
  in
  let findings =
    if all then report.findings
    else regressions report @ improvements report
  in
  Obs.Json.Obj
    [ ("comparisons", Obs.Json.Int (List.length report.findings));
      ("regressions", Obs.Json.Int (List.length (regressions report)));
      ("improvements", Obs.Json.Int (List.length (improvements report)));
      ("clean", Obs.Json.Bool (clean report));
      ("findings", Obs.Json.List (List.map finding_to_json findings));
      ("missing", Obs.Json.List (List.map pair report.missing));
      ("added", Obs.Json.List (List.map pair report.added)) ]

let perturb factors runs =
  (* a factor naming no measured metric would silently perturb nothing and
     fake a passing sensitivity self-test — reject it instead *)
  let known =
    List.sort_uniq String.compare
      (List.concat_map (fun run -> List.map fst run.metrics) runs)
  in
  let unknown =
    List.filter (fun (key, _) -> not (List.mem key known)) factors
  in
  match unknown with
  | (key, _) :: _ ->
    Error
      (Printf.sprintf "unknown metric %S in --perturb (known metrics: %s)" key
         (String.concat ", " known))
  | [] ->
    Ok
      (List.map
         (fun run ->
           { run with
             metrics =
               List.map
                 (fun (key, value) ->
                   match List.assoc_opt key factors with
                   | Some factor -> (key, value *. factor)
                   | None -> (key, value))
                 run.metrics })
         runs)
