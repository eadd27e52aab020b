(* colock — command-line interface to the lock technique library. The
   commands live in three groups over one plumbing module:
     Demos    graph, plan, query: the paper's figures on its example
     Runs     simulate, soak, bench diff: runs of the simulator
     Readers  top, analyze, certify, explain, flame, why, trends: reports
              over event traces and the run history *)

open Cmdliner

let () =
  let info =
    Cmd.info "colock" ~version:"0.1.0"
      ~doc:"A lock technique for disjoint and non-disjoint complex objects \
            (Herrmann et al., EDBT 1990)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ Demos.graph_cmd; Demos.plan_cmd; Demos.query_cmd;
            Runs.simulate_cmd; Readers.top_cmd; Readers.analyze_cmd;
            Readers.certify_cmd; Readers.explain_cmd; Readers.flame_cmd;
            Readers.why_cmd; Readers.trends_cmd; Runs.soak_cmd;
            Runs.bench_cmd ]))
