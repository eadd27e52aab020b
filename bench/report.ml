(* Machine-readable companion to the experiment tables.

   Every experiment run also leaves a BENCH_<name>.json next to the build:
   one flat JSON object with the simulator metrics, the lock-table counters
   and the latency quantiles (wait time, grant latency, transaction
   response) of a deterministic instrumented reference run — the
   manufacturing mix under the proposed protocol, seeded per experiment.
   Downstream tooling can diff these across commits without scraping the
   human tables. *)

(* Stable per-experiment seed: "E5" -> 5. *)
let seed_of_experiment name =
  let digits = String.to_seq name |> Seq.filter (fun c -> c >= '0' && c <= '9') in
  match String.of_seq digits with
  | "" -> 17
  | text -> int_of_string text

let reference_row ~seed =
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed }
      { Sim.Scenario.default_mix with jobs = 40; seed }
  in
  let collector = Obs.Collector.create () in
  let run =
    Bench.Run.setup
      ~obs:(Some (Obs.Sink.create [ Obs.Collector.handle collector ]))
      graph Workload.Dsl.Proposed specs
  in
  let metrics = Sim.Runner.run ~table:run.table run.jobs in
  Bench.Run.row run metrics collector

let write ~experiment () =
  let row = reference_row ~seed:(seed_of_experiment experiment) in
  Harness.write_json
    (Printf.sprintf "BENCH_%s.json" experiment)
    (Obs.Json.Obj
       (("experiment", Obs.Json.String experiment)
        :: List.map (fun (key, value) -> (key, Obs.Json.Float value)) row));
  (* the headline numbers also land in the append-only trajectory store,
     so `colock trends` can plot them across commits *)
  let headline =
    List.filter
      (fun (key, _) ->
        List.mem key
          [ "committed"; "throughput"; "total_wait"; "makespan"; "lock.waits" ])
      row
  in
  let record =
    Bench.History.append ~path:"BENCH_HISTORY.jsonl" ~source:"bench"
      ~label:experiment headline
  in
  Printf.printf "history seq %d -> BENCH_HISTORY.jsonl\n"
    record.Bench.History.seq

let write_scenarios ?(out = "BENCH_scenarios.json") ~dir () =
  match Workload.Dsl.load_path dir with
  | Error message ->
    Printf.eprintf "scenarios: %s\n" message;
    exit 1
  | Ok scenarios ->
    Bench.Baseline.save out (Bench.Baseline.collect scenarios);
    Printf.printf "wrote %s (%d scenario(s))\n" out (List.length scenarios)
