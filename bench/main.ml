(* Benchmark and experiment harness.

   Default: regenerate every experiment table/figure (E1-E13 plus the E15
   resilience comparison, see DESIGN.md).
   Options:
     --only E5        run a single experiment (E1..E13, E15..E17, E19..E22)
     --bechamel       additionally run the Bechamel micro-benchmarks of
                      the operations perfbench does not time (E1, E2, the
                      E5 k-sweep, E6, E8, E10 and the E14 index ablation)
     --no-experiments skip the experiment tables
     --scenarios DIR  regenerate BENCH_scenarios.json from the committed
                      scenario suite (then exit) *)

open Bechamel
open Toolkit

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Oid = Nf2.Oid

(* --------------------------------------------------- Bechamel micro-tests *)

(* Shared read-only fixtures, built once. *)
let fig1_db = Workload.Figure1.database ()
let fig1_graph = Graph.build fig1_db

let shared32_graph = Graph.build (Workload.Generator.shared_effector ~robots:32)

let robot_r1 =
  Graph.node_exn fig1_graph
    (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]))

let shared_e1 =
  Option.get (Graph.object_node shared32_graph (Oid.make ~relation:"effectors" ~key:"e1"))

(* E1: derive the object-specific lock graph of "cells". *)
let bench_e1_derive_object_graph =
  Test.make ~name:"E1 derive object graph (cells)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Colock.Object_graph.of_relation ~database:"db1"
              Workload.Figure1.cells_schema)))

(* E2: unit computation on the instance graph. *)
let bench_e2_unit_members =
  Test.make ~name:"E2 outer-unit members (fig1)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Colock.Units.unit_members fig1_graph ~root:(Graph.root fig1_graph))))

(* E5: X on a shared effector, proposed vs all-parents. *)
let bench_e5_shared_proposed =
  let table = Table.create () in
  let protocol = Protocol.create shared32_graph table in
  Test.make ~name:"E5 plan X shared effector, proposed (k=32)"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Protocol.plan_node protocol ~txn:1 shared_e1 Mode.X)))

let bench_e5_shared_all_parents =
  Test.make ~name:"E5 plan X shared effector, naive DAG (k=32)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Baselines.Sysr_dag.plan_exclusive_all_parents shared32_graph
              ~oid:(Oid.make ~relation:"effectors" ~key:"e1"))))

(* E5: S on the cell whose k robots all reference the one shared effector:
   downward propagation must find that effector below the cell. The
   compiled graph memoises it per node, so the cost is flat in k. *)
let bench_e5_cell_plans =
  List.map
    (fun robots ->
      let graph = Graph.build (Workload.Generator.shared_effector ~robots) in
      let protocol = Protocol.create graph (Table.create ()) in
      let c1 =
        Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1"))
      in
      Test.make
        ~name:(Printf.sprintf "E5 plan S cell c1, proposed (k=%d)" robots)
        (Staged.stage (fun () ->
             Sys.opaque_identity (Protocol.plan_node protocol ~txn:1 c1 Mode.S))))
    [ 1; 32; 256 ]

(* E6: the hidden-conflict audit. *)
let bench_e6_hidden_conflict_audit =
  let table = Table.create () in
  let r2 =
    Graph.node_exn fig1_graph
      (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ]))
  in
  (match
     Baselines.Technique.acquire table ~txn:1
       (Baselines.Sysr_dag.plan_hierarchical_naive fig1_graph robot_r1 Mode.X)
   with
  | Baselines.Technique.Acquired _ -> ()
  | Baselines.Technique.Blocked _ -> assert false);
  (match
     Baselines.Technique.acquire table ~txn:2
       (Baselines.Sysr_dag.plan_hierarchical_naive fig1_graph r2 Mode.X)
   with
  | Baselines.Technique.Acquired _ -> ()
  | Baselines.Technique.Blocked _ -> assert false);
  Test.make ~name:"E6 hidden-conflict audit (fig1)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Baselines.Sysr_dag.hidden_conflicts fig1_graph table ~txns:[ 1; 2 ])))

(* E8: escalation anticipation (query-specific lock graph construction). *)
let bench_e8_query_graph =
  let catalog = Nf2.Database.catalog fig1_db in
  let stats =
    let computed =
      List.map
        (fun store -> (Nf2.Relation.name store, Nf2.Statistics.compute store))
        (Nf2.Database.relations fig1_db)
    in
    fun relation ->
      match List.assoc_opt relation computed with
      | Some stats -> stats
      | None -> Nf2.Statistics.empty relation
  in
  let access =
    Colock.Access.make
      ~predicate:(Nf2.Path.of_string "cell_id")
      ~target:(Nf2.Path.of_string "c_objects")
      Colock.Access.Read "cells"
  in
  Test.make ~name:"E8 build query-specific lock graph"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Colock.Query_graph.build ~threshold:16 catalog ~stats [ access ])))

(* E10: instance-graph construction (the once-per-relation overhead). *)
let bench_e10_build_instance_graph =
  Test.make ~name:"E10 build instance graph (fig1)"
    (Staged.stage (fun () -> Sys.opaque_identity (Graph.build fig1_db)))

(* E14: index-assisted selection vs relation scan (the index substrate). *)
let bench_e14_pair =
  let make_executor with_index =
    let db =
      Workload.Generator.manufacturing
        { Workload.Generator.default_manufacturing with cells = 256 }
    in
    if with_index then begin
      match
        Nf2.Database.create_index db ~relation:"cells"
          (Nf2.Path.of_string "cell_id")
      with
      | Ok () -> ()
      | Error _ -> assert false
    end;
    let graph = Graph.build db in
    let table = Table.create () in
    let protocol = Protocol.create graph table in
    Query.Executor.create db protocol
  in
  let keyed = "SELECT c FROM c IN cells WHERE c.cell_id = 'c200' FOR READ" in
  let bench name executor =
    Test.make ~name
      (Staged.stage (fun () ->
           (match Query.Executor.run_string executor ~txn:3 keyed with
            | Ok _ -> ()
            | Error _ -> assert false);
           ignore
             (Protocol.end_of_transaction (Query.Executor.protocol executor)
                ~txn:3)))
  in
  [ bench "E14 keyed select, scan (256 cells)" (make_executor false);
    bench "E14 keyed select, index (256 cells)" (make_executor true) ]

let all_micro_tests =
  Test.make_grouped ~name:"colock"
    ([ bench_e1_derive_object_graph; bench_e2_unit_members;
      bench_e5_shared_proposed; bench_e5_shared_all_parents;
      bench_e6_hidden_conflict_audit; bench_e8_query_graph;
      bench_e10_build_instance_graph ]
     @ bench_e5_cell_plans @ bench_e14_pair)

let run_bechamel () =
  print_endline "\n=== Bechamel micro-benchmarks (ns/run, OLS estimate) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* No per-sample GC stabilisation: it compacts the fixtures' large heap
     before every sample, and re-marking that heap is then billed to the
     next sample's allocations, which inflates each rung with the size of
     the whole harness's live data rather than of its own. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure by_test ->
      let rows =
        Hashtbl.fold (fun name ols_result accu -> (name, ols_result) :: accu)
          by_test []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols_result) ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (first :: _) -> first
            | Some [] | None -> Float.nan
          in
          Printf.printf "  %-52s %14.1f ns/run\n" name estimate)
        rows)
    merged

(* ------------------------------------------------------------------ main *)

let experiments = Paper.experiments @ Operations.experiments

let () =
  let argv = Array.to_list Sys.argv in
  let with_bechamel = List.mem "--bechamel" argv in
  let skip_experiments = List.mem "--no-experiments" argv in
  let arg_of flag =
    let rec find = function
      | [ probe ] when probe = flag ->
        Printf.eprintf "bench: option %s needs a value\n" flag;
        exit 124
      | probe :: value :: _ when probe = flag -> Some value
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let only = arg_of "--only" in
  (match arg_of "--scenarios" with
   | Some dir ->
     Report.write_scenarios ~dir ();
     exit 0
   | None -> ());
  (match only, skip_experiments with
   | Some name, _ -> (
     match List.assoc_opt name experiments with
     | Some experiment ->
       experiment ();
       Report.write ~experiment:name ()
     | None ->
       Printf.eprintf "unknown experiment %s (use E1..E13, E15..E17, E19..E22)\n" name;
       exit 1)
   | None, false ->
     List.iter (fun (_name, experiment) -> experiment ()) experiments;
     List.iter
       (fun (name, _experiment) -> Report.write ~experiment:name ())
       experiments
   | None, true -> ());
  if with_bechamel then run_bechamel ()
