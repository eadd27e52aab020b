(* The paper experiments, E1-E13: one entry per figure or claim of the
   paper (see DESIGN.md §3 and EXPERIMENTS.md). Each prints the table or
   artifact it regenerates. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Oid = Nf2.Oid
module Path = Nf2.Path

let q1 =
  "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"

let q2 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r1' FOR UPDATE"

let q3 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r2' FOR UPDATE"

type fig1_env = {
  db : Nf2.Database.t;
  graph : Graph.t;
  table : Table.t;
  rights : Authz.Rights.t;
  protocol : Protocol.t;
}

let fig1_env ?(rule = Protocol.Rule_4_prime) ?(library_writable = false)
    ?c_objects () =
  let db = Workload.Figure1.database ?c_objects () in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  if not library_writable then
    Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Protocol.create ~rule ~rights graph table in
  { db; graph; table; rights; protocol }

let node graph steps = Graph.node_exn graph (Option.get (Node_id.of_steps steps))

(* ------------------------------------------------------------------- E1 *)

let e1_object_graphs () =
  Tables.note "\n=== E1: object-specific lock graphs (paper Figure 5) ===";
  List.iter
    (fun schema ->
      let graph = Colock.Object_graph.of_relation ~database:"db1" schema in
      Format.printf "%a@.@." Colock.Object_graph.pp graph;
      Printf.printf "  (%d lockable-unit kinds, %d of them BLUs)\n"
        (Colock.Object_graph.node_count graph)
        (Colock.Object_graph.blu_count graph))
    [ Workload.Figure1.cells_schema; Workload.Figure1.effectors_schema ]

(* ------------------------------------------------------------------- E2 *)

let e2_units () =
  Tables.note "\n=== E2: units and superunits of cell c1 (paper Figure 6) ===";
  let env = fig1_env () in
  let e1 = node env.graph [ "db1"; "seg2"; "effectors"; "e1" ] in
  Tables.note "inner unit \"effector e1\":";
  Format.printf "%a@." (Colock.Units.pp_unit env.graph) e1;
  Tables.note "\nsuperunit parents of entry point e1 (upward propagation set):";
  List.iter
    (fun parent -> Printf.printf "  %s\n" (Graph.resource env.graph parent))
    (Colock.Units.superunit_parents env.graph ~root:e1);
  let outer = Colock.Units.unit_members env.graph ~root:(Graph.root env.graph) in
  Printf.printf
    "\nouter unit: %d nodes (stops at the entry points of the %d inner units)\n"
    (List.length outer)
    (List.length
       (List.filter
          (fun (entry : Graph.node) -> entry.entry_point)
          (List.filter_map
             (fun key ->
               Graph.object_node env.graph (Oid.make ~relation:"effectors" ~key))
             [ "e1"; "e2"; "e3" ])))

(* ------------------------------------------------------------------- E3 *)

let e3_figure7 () =
  Tables.note "\n=== E3: lock sets of Q2 and Q3 (paper Figure 7) ===";
  let env = fig1_env () in
  let executor = Query.Executor.create env.db env.protocol in
  let run txn text =
    match Query.Executor.run_string executor ~txn ~wait:false text with
    | Ok _ -> ()
    | Error error ->
      Format.printf "unexpected: %a@." Query.Executor.pp_error error
  in
  run 2 q2;
  run 3 q3;
  Format.printf "%a@." Table.pp env.table;
  let q2_locks = List.length (Table.locks_of env.table ~txn:2) in
  let q3_locks = List.length (Table.locks_of env.table ~txn:3) in
  Printf.printf
    "\nQ2 holds %d locks, Q3 holds %d locks (paper: 10 each); both share\n\
     effector e2 in S mode and ran concurrently under rule 4'.\n"
    q2_locks q3_locks

(* ------------------------------------------------------------------- E4 *)

let run_mix graph technique specs =
  let run = Bench.Run.setup ~obs:None graph technique specs in
  (run.name, Sim.Runner.run ~table:run.table run.jobs)

let e4_granule_problem () =
  Tables.note
    "\n=== E4: the granule-oriented problem (paper 3.2.1) ===\n\
     Q1-like reads + Q2-like robot updates on 4 cells; sweep objects per cell.";
  let rows =
    List.concat_map
      (fun objects_per_cell ->
        let graph, specs =
          Bench.Run.manufacturing
            { Workload.Generator.default_manufacturing with
              cells = 4; objects_per_cell; seed = 7 }
            { Sim.Scenario.default_mix with
              jobs = 60; arrival_gap = 5; seed = 23 }
        in
        List.map
          (fun technique ->
            let name, metrics = run_mix graph technique specs in
            [ Tables.Int objects_per_cell; Tables.Text name;
              Tables.Int metrics.Sim.Metrics.committed;
              Tables.Int metrics.Sim.Metrics.makespan;
              Tables.Float (Sim.Metrics.throughput metrics);
              Tables.Int metrics.Sim.Metrics.total_wait;
              Tables.Int metrics.Sim.Metrics.lock_requests;
              Tables.Int metrics.Sim.Metrics.peak_lock_entries ])
          [ Workload.Dsl.Proposed; Workload.Dsl.Whole_object;
            Workload.Dsl.Tuple_level ])
      [ 10; 100; 1000 ]
  in
  Tables.print ~title:"E4: Q1/Q2 mix, 60 transactions"
    ~header:[ "objs/cell"; "technique"; "committed"; "makespan"; "thruput";
              "waits"; "lock reqs"; "peak entries" ]
    rows;
  Tables.note
    "expected shape: whole-object locking pays in waits/makespan; tuple-level\n\
     pays in lock requests and table size, growing with objects per cell;\n\
     the proposed technique is best or tied on both axes."

(* ------------------------------------------------------------------- E5 *)

let e5_shared_exclusive_cost () =
  Tables.note
    "\n=== E5: X-locking one shared effector (paper 3.2.2, problem 1) ===\n\
     One effector referenced by k robots; cost to lock it exclusively.";
  let rows =
    List.map
      (fun robots ->
        let db = Workload.Generator.shared_effector ~robots in
        let graph = Graph.build db in
        let table = Table.create () in
        let protocol = Protocol.create graph table in
        let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
        let entry = Option.get (Graph.object_node graph e1) in
        let proposed_plan = Protocol.plan_node protocol ~txn:1 entry Mode.X in
        let naive_plan =
          Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:e1
        in
        [ Tables.Int robots;
          Tables.Int (List.length proposed_plan);
          Tables.Int (List.length naive_plan);
          Tables.Int (Baselines.Sysr_dag.parent_enumeration_visits graph) ])
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  Tables.print ~title:"E5: lock requests to X one shared effector"
    ~header:[ "sharing k"; "proposed"; "naive DAG"; "scan visits" ]
    rows;
  Tables.note
    "expected shape: the proposed protocol is constant (intention chain +\n\
     entry point); the naive all-parents rule grows linearly in k and must\n\
     additionally scan the outer unit to find the referencing robots."

(* ------------------------------------------------------------------- E6 *)

let e6_from_the_side () =
  Tables.note
    "\n=== E6: from-the-side access to common data (paper 3.2.2, problem 2) ===";
  let run_naive () =
    let env = fig1_env ~library_writable:true () in
    let r1 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
    let r2 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ] in
    List.iteri
      (fun index robot ->
        match
          Baselines.Technique.acquire env.table ~txn:(index + 1)
            (Baselines.Sysr_dag.plan_hierarchical_naive env.graph robot Mode.X)
        with
        | Baselines.Technique.Acquired _ -> ()
        | Baselines.Technique.Blocked _ -> ())
      [ r1; r2 ];
    List.length
      (Baselines.Sysr_dag.hidden_conflicts env.graph env.table ~txns:[ 1; 2 ])
  in
  let run_proposed rule library_writable =
    let env = fig1_env ~rule ~library_writable () in
    let r1 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
    let r2 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ] in
    let acquired =
      List.filter
        (fun (txn, robot) ->
          match Protocol.acquire env.protocol ~wait:false ~txn robot Mode.X with
          | Protocol.Acquired _ -> true
          | Protocol.Blocked _ ->
            let (_ : Table.grant list) = Table.release_all env.table ~txn in
            false)
        [ (1, r1); (2, r2) ]
    in
    let conflicts =
      Baselines.Sysr_dag.hidden_conflicts ~rights:env.rights env.graph
        env.table
        ~txns:(List.map fst acquired)
    in
    (List.length acquired, List.length conflicts)
  in
  let naive_conflicts = run_naive () in
  let rule4_acquired, rule4_conflicts = run_proposed Protocol.Rule_4 true in
  let rule4p_acquired, rule4p_conflicts =
    run_proposed Protocol.Rule_4_prime false
  in
  Tables.print ~title:"E6: two updaters reaching effector e2 via different robots"
    ~header:[ "technique"; "both proceed?"; "hidden conflicts" ]
    [ [ Tables.Text "naive hierarchical DAG"; Tables.Text "yes";
        Tables.Int naive_conflicts ];
      [ Tables.Text "proposed, rule 4";
        Tables.Text (if rule4_acquired = 2 then "yes" else "no (conflict detected)");
        Tables.Int rule4_conflicts ];
      [ Tables.Text "proposed, rule 4' (library read-only)";
        Tables.Text (if rule4p_acquired = 2 then "yes" else "no");
        Tables.Int rule4p_conflicts ] ];
  Tables.note
    "expected shape: the naive protocol lets both updaters proceed with >0\n\
     undetected conflicts on e2; the proposed protocol either detects the\n\
     conflict (rule 4) or safely downgrades to shared access (rule 4')."

(* ------------------------------------------------------------------- E7 *)

(* Runs the specs under [rule] with the effector library read-only except
   for a deterministic round-robin: of every 4 consecutive transaction ids,
   the first [authorized * 4] may modify it. *)
let run_authorized graph specs rule ~authorized =
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let on_begin txn =
    if float_of_int (txn mod 4) < authorized *. 4.0 then
      Authz.Rights.grant_modify rights ~txn ~relation:"effectors"
  in
  let protocol = Protocol.create ~rule ~rights graph table in
  let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
  Sim.Runner.run ~on_begin ~table jobs

let e7_authorization () =
  Tables.note
    "\n=== E7: the authorization-oriented problem (paper 3.2.3, rule 4') ===\n\
     50 robot-update transactions; sweep the fraction allowed to modify the\n\
     effector library.";
  let graph, specs =
    Bench.Run.manufacturing
      { Workload.Generator.default_manufacturing with
        cells = 6; effectors = 6; seed = 7 }
      { Sim.Scenario.default_mix with jobs = 50; read_fraction = 0.0;
        arrival_gap = 2; seed = 41 }
  in
  let rows =
    List.concat_map
      (fun authorized ->
        let rule4 = run_authorized graph specs Protocol.Rule_4 ~authorized in
        let rule4_prime =
          run_authorized graph specs Protocol.Rule_4_prime ~authorized
        in
        [ [ Tables.Float authorized; Tables.Text "rule 4";
            Tables.Int rule4.Sim.Metrics.committed;
            Tables.Int rule4.Sim.Metrics.makespan;
            Tables.Int rule4.Sim.Metrics.total_wait;
            Tables.Int rule4.Sim.Metrics.deadlock_aborts ];
          [ Tables.Float authorized; Tables.Text "rule 4'";
            Tables.Int rule4_prime.Sim.Metrics.committed;
            Tables.Int rule4_prime.Sim.Metrics.makespan;
            Tables.Int rule4_prime.Sim.Metrics.total_wait;
            Tables.Int rule4_prime.Sim.Metrics.deadlock_aborts ] ])
      [ 0.0; 0.25; 0.5; 1.0 ]
  in
  Tables.print ~title:"E7: rule 4 vs rule 4' under authorization"
    ~header:[ "authorized"; "rule"; "committed"; "makespan"; "waits"; "aborts" ]
    rows;
  Tables.note
    "expected shape: rule 4 is insensitive to authorization and serializes on\n\
     shared effectors; rule 4' approaches it as the authorized fraction grows\n\
     and wins clearly when most transactions cannot modify the library."

(* ------------------------------------------------------------------- E8 *)

let e8_escalation_anticipation () =
  Tables.note
    "\n=== E8: anticipation of lock escalations (paper 4.5, [HDKS89]) ===\n\
     Reading all c_objects of one cell; sweep member count (threshold 16).";
  let threshold = 16 in
  let rows =
    List.map
      (fun members ->
        let env = fig1_env ~c_objects:members () in
        (* anticipated: the query-specific lock graph picks the granule *)
        let executor =
          Query.Executor.create ~threshold env.db env.protocol
        in
        let anticipated_requests, anticipated_escalations =
          match Query.Executor.run_string executor ~txn:1 q1 with
          | Ok result ->
            ( result.Query.Executor.locks_requested,
              (Table.stats env.table).Lockmgr.Lock_stats.escalations )
          | Error _ -> (-1, -1)
        in
        let anticipated_peak = Table.peak_entry_count env.table in
        (* naive: lock every member, escalate at run time when past the
           threshold *)
        let naive = fig1_env ~c_objects:members () in
        let c1 = Option.get (Graph.object_node naive.graph (Oid.make ~relation:"cells" ~key:"c1")) in
        let holu = Option.get (Graph.member_node naive.graph c1 "c_objects") in
        let member_nodes = Graph.children naive.graph holu in
        List.iter
          (fun member ->
            match Protocol.acquire naive.protocol ~txn:1 member Mode.S with
            | Protocol.Acquired _ -> ()
            | Protocol.Blocked _ -> ())
          member_nodes;
        let (_ : Colock.Escalation.escalation_result) =
          Colock.Escalation.maybe_escalate naive.protocol ~txn:1 ~threshold
            ~parent:holu
        in
        let naive_stats = Table.stats naive.table in
        [ Tables.Int members;
          Tables.Int anticipated_requests;
          Tables.Int anticipated_peak;
          Tables.Int anticipated_escalations;
          Tables.Int naive_stats.Lockmgr.Lock_stats.requests;
          Tables.Int (Table.peak_entry_count naive.table);
          Tables.Int naive_stats.Lockmgr.Lock_stats.escalations ])
      [ 4; 16; 64; 256 ]
  in
  Tables.print ~title:"E8: anticipated vs naive fine-grain locking"
    ~header:[ "members"; "ant. reqs"; "ant. peak"; "ant. escal";
              "naive reqs"; "naive peak"; "naive escal" ]
    rows;
  Tables.note
    "expected shape: anticipation keeps requests and the lock table flat (the\n\
     c_objects HoLU is chosen up front); naive fine-grain locking grows\n\
     linearly and needs a run-time escalation once past the threshold."

(* ------------------------------------------------------------------- E9 *)

(* A random member node at the leaf level of a deep assembly. *)
let random_leaf_member state graph ~depth asm_key =
  let asm_node =
    Option.get
      (Graph.object_node graph (Oid.make ~relation:"assemblies" ~key:asm_key))
  in
  let rec descend node remaining =
    if remaining = 0 then node
    else
      let holu =
        Option.get
          (Graph.member_node graph node
             (if remaining = depth then "tree" else "children"))
      in
      let members = Graph.children graph holu in
      let pick = List.nth members (Random.State.int state (List.length members)) in
      descend pick (remaining - 1)
  in
  Graph.id graph (descend asm_node depth)

let e9_scaling_claim () =
  Tables.note
    "\n=== E9: the 5 scaling claim ===\n\
     \"The deeper the structure / the more common data / the longer the\n\
     transactions / the more restrictive the modes - the higher the benefit.\"";
  (* (a) depth sweep *)
  let depth_rows =
    List.map
      (fun depth ->
        let db =
          Workload.Generator.deep
            { Workload.Generator.default_deep with
              depth; fanout = 3; objects = 2; share = false; parts = 0 }
        in
        let graph = Graph.build db in
        let state = Random.State.make [| 3 |] in
        let specs =
          List.init 40 (fun index ->
              let asm = Printf.sprintf "a%d" (1 + Random.State.int state 2) in
              let target = random_leaf_member state graph ~depth asm in
              { Sim.Scenario.arrival = index * 5;
                ops =
                  [ (if Random.State.bool state then
                       Sim.Scenario.Node_read target
                     else Sim.Scenario.Node_update target) ];
                access_cost = 100;
                priority = Robust.Admission.Normal })
        in
        let _, proposed_metrics = run_mix graph Workload.Dsl.Proposed specs in
        let _, whole_metrics = run_mix graph Workload.Dsl.Whole_object specs in
        let benefit =
          float_of_int whole_metrics.Sim.Metrics.makespan
          /. float_of_int (max 1 proposed_metrics.Sim.Metrics.makespan)
        in
        [ Tables.Int depth;
          Tables.Int proposed_metrics.Sim.Metrics.makespan;
          Tables.Int whole_metrics.Sim.Metrics.makespan;
          Tables.Float benefit ])
      [ 1; 2; 3; 4 ]
  in
  Tables.print
    ~title:"E9a: structure depth (leaf-level accesses, 2 assemblies)"
    ~header:[ "depth"; "proposed makespan"; "whole-object makespan"; "benefit" ]
    depth_rows;
  (* (b) sharing sweep: fewer effectors = more sharing per effector *)
  let sharing_rows =
    List.map
      (fun effectors ->
        let graph, specs =
          Bench.Run.manufacturing
            { Workload.Generator.default_manufacturing with
              cells = 6; effectors; seed = 7 }
            { Sim.Scenario.default_mix with jobs = 50; read_fraction = 0.0;
              arrival_gap = 2; seed = 41 }
        in
        let run rule = run_authorized graph specs rule ~authorized:0.0 in
        let rule4 = run Protocol.Rule_4 in
        let rule4_prime = run Protocol.Rule_4_prime in
        let sharing =
          float_of_int
            (6 * Workload.Generator.default_manufacturing.Workload.Generator.robots_per_cell
             * Workload.Generator.default_manufacturing.Workload.Generator.effectors_per_robot)
          /. float_of_int effectors
        in
        [ Tables.Int effectors; Tables.Float sharing;
          Tables.Int rule4.Sim.Metrics.total_wait;
          Tables.Int rule4_prime.Sim.Metrics.total_wait;
          Tables.Float
            (float_of_int rule4.Sim.Metrics.makespan
             /. float_of_int (max 1 rule4_prime.Sim.Metrics.makespan)) ])
      [ 32; 8; 2 ]
  in
  Tables.print
    ~title:"E9b: abundance of common data (robot updates, library read-only)"
    ~header:[ "effectors"; "avg sharing"; "rule4 waits"; "rule4' waits";
              "benefit" ]
    sharing_rows;
  (* (c) transaction length: longer lock-holding (check-out-like durations) *)
  let length_rows =
    List.map
      (fun access_cost ->
        let graph, specs =
          Bench.Run.manufacturing
            { Workload.Generator.default_manufacturing with cells = 6; seed = 7 }
            { Sim.Scenario.default_mix with jobs = 30; access_cost;
              arrival_gap = 10; seed = 59 }
        in
        let _, proposed_metrics = run_mix graph Workload.Dsl.Proposed specs in
        let _, whole_metrics = run_mix graph Workload.Dsl.Whole_object specs in
        [ Tables.Int access_cost;
          Tables.Int proposed_metrics.Sim.Metrics.makespan;
          Tables.Int whole_metrics.Sim.Metrics.makespan;
          Tables.Float
            (float_of_int whole_metrics.Sim.Metrics.makespan
             /. float_of_int (max 1 proposed_metrics.Sim.Metrics.makespan));
          Tables.Int
            (whole_metrics.Sim.Metrics.makespan
             - proposed_metrics.Sim.Metrics.makespan) ])
      [ 50; 200; 800; 3200 ]
  in
  Tables.print
    ~title:"E9c: transaction length (lock-holding duration per transaction)"
    ~header:[ "duration"; "proposed makespan"; "whole-object makespan";
              "ratio"; "time saved" ]
    length_rows;
  (* (d) restrictiveness of modes *)
  let update_rows =
    List.map
      (fun update_fraction ->
        let graph, specs =
          Bench.Run.manufacturing
            { Workload.Generator.default_manufacturing with cells = 6; seed = 7 }
            { Sim.Scenario.default_mix with
              jobs = 50; read_fraction = 1.0 -. update_fraction;
              arrival_gap = 4; seed = 61 }
        in
        let _, proposed_metrics = run_mix graph Workload.Dsl.Proposed specs in
        let _, whole_metrics = run_mix graph Workload.Dsl.Whole_object specs in
        [ Tables.Float update_fraction;
          Tables.Int proposed_metrics.Sim.Metrics.total_wait;
          Tables.Int whole_metrics.Sim.Metrics.total_wait;
          Tables.Float
            (float_of_int whole_metrics.Sim.Metrics.makespan
             /. float_of_int (max 1 proposed_metrics.Sim.Metrics.makespan)) ])
      [ 0.0; 0.5; 1.0 ]
  in
  Tables.print ~title:"E9d: restrictiveness (update fraction)"
    ~header:[ "update frac"; "proposed waits"; "whole-object waits"; "benefit" ]
    update_rows;
  Tables.note
    "expected shape: the benefit grows along the depth, sharing and duration\n\
     axes, as the paper's 5 predicts; for restrictiveness it appears as soon\n\
     as X modes enter the mix (at 100% updates both techniques additionally\n\
     serialize same-robot writers, so the gap narrows again)."

(* ------------------------------------------------------------------ E10 *)

let e10_disjoint_overhead () =
  Tables.note
    "\n=== E10: overhead on purely disjoint data (paper 4.6, disadvantage 2) ===";
  let db =
    Workload.Generator.deep
      { Workload.Generator.default_deep with share = false; parts = 0;
        depth = 1; objects = 4 }
  in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Protocol.create graph table in
  let a1 = Option.get (Graph.object_node graph (Oid.make ~relation:"assemblies" ~key:"a1")) in
  let proposed_plan = Protocol.plan_node protocol ~txn:1 a1 Mode.X in
  let system_r_plan = Baselines.Technique.with_ancestors graph a1 Mode.X in
  let env = fig1_env () in
  let r1 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  let non_disjoint_plan = Protocol.plan_node env.protocol ~txn:1 r1 Mode.X in
  Tables.print ~title:"E10: lock requests for an exclusive object access"
    ~header:[ "scenario"; "proposed"; "System R DAG" ]
    [ [ Tables.Text "disjoint assembly (X on object)";
        Tables.Int (List.length proposed_plan);
        Tables.Int (List.length system_r_plan) ];
      [ Tables.Text "non-disjoint robot r1 (X, rule 4')";
        Tables.Int (List.length non_disjoint_plan);
        Tables.Text "6 (unsound: misses e1/e2)" ] ];
  Tables.note
    "expected shape: on disjoint data the proposed protocol degenerates to\n\
     exactly the System R plan (identical request count); on non-disjoint\n\
     data it pays 4 extra entries (seg2, relation, e1, e2) for correctness."

(* ------------------------------------------------------------------ E11 *)

let e11_qualitative_matrix () =
  Tables.note
    "\n=== E11: the qualitative evaluation, measured (paper 4.6) ===";
  (* Q1 || Q2 concurrency per technique *)
  let q1_q2 technique_plans =
    let env = fig1_env ~library_writable:true () in
    let c1 = Oid.make ~relation:"cells" ~key:"c1" in
    let first, second = technique_plans env c1 in
    let outcome_1 = Baselines.Technique.acquire env.table ~txn:1 first in
    let outcome_2 =
      Baselines.Technique.acquire env.table ~txn:2 ~wait:false second
    in
    (match outcome_1, outcome_2 with
     | Baselines.Technique.Acquired _, Baselines.Technique.Acquired _ -> "yes"
     | Baselines.Technique.Acquired _, Baselines.Technique.Blocked _ -> "no"
     | Baselines.Technique.Blocked _, _ -> "n/a")
  in
  let to_requests steps = List.map Baselines.Technique.of_step steps in
  let proposed_plans env c1 =
    let c_objects = Option.get (Graph.member_node env.graph (Option.get (Graph.object_node env.graph c1)) "c_objects") in
    let r1 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
    ( to_requests (Protocol.plan_node env.protocol ~txn:1 c_objects Mode.S),
      to_requests (Protocol.plan_node env.protocol ~txn:2 r1 Mode.X) )
  in
  let whole_plans env c1 =
    ( Baselines.Whole_object.plan env.graph ~oid:c1 Mode.S,
      Baselines.Whole_object.plan env.graph ~oid:c1 Mode.X )
  in
  let tuple_plans env c1 =
    ( Baselines.Tuple_level.plan env.graph ~oid:c1
        ~target:(Path.of_string "c_objects") Mode.S,
      Baselines.Tuple_level.plan env.graph ~oid:c1
        ~target:(Path.of_string "robots") Mode.X )
  in
  (* lock counts for Q1 on a 100-object cell *)
  let q1_locks technique =
    let env = fig1_env ~c_objects:100 () in
    let c1 = Oid.make ~relation:"cells" ~key:"c1" in
    let c_objects = Option.get (Graph.member_node env.graph (Option.get (Graph.object_node env.graph c1)) "c_objects") in
    match technique with
    | `Proposed -> List.length (Protocol.plan_node env.protocol ~txn:1 c_objects Mode.S)
    | `Whole -> List.length (Baselines.Whole_object.plan env.graph ~oid:c1 Mode.S)
    | `Tuple ->
      List.length
        (Baselines.Tuple_level.plan env.graph ~oid:c1
           ~target:(Path.of_string "c_objects") Mode.S)
  in
  (* X on an effector shared by 32 robots *)
  let shared_cost technique =
    let db = Workload.Generator.shared_effector ~robots:32 in
    let graph = Graph.build db in
    let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
    match technique with
    | `Proposed ->
      let table = Table.create () in
      let protocol = Protocol.create graph table in
      let entry = Option.get (Graph.object_node graph e1) in
      List.length (Protocol.plan_node protocol ~txn:1 entry Mode.X)
    | `Naive ->
      List.length (Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:e1)
  in
  Tables.print ~title:"E11: technique x problem matrix"
    ~header:[ "technique"; "Q1||Q2?"; "Q1 locks (100 objs)";
              "X shared (k=32)"; "hidden conflicts" ]
    [ [ Tables.Text "proposed (rules 1-5, 4')";
        Tables.Text (q1_q2 proposed_plans);
        Tables.Int (q1_locks `Proposed);
        Tables.Int (shared_cost `Proposed); Tables.Int 0 ];
      [ Tables.Text "whole-object (XSQL)"; Tables.Text (q1_q2 whole_plans);
        Tables.Int (q1_locks `Whole); Tables.Text "n/a"; Tables.Int 0 ];
      [ Tables.Text "tuple-level"; Tables.Text (q1_q2 tuple_plans);
        Tables.Int (q1_locks `Tuple); Tables.Text "n/a"; Tables.Int 0 ];
      [ Tables.Text "naive DAG (all parents)"; Tables.Text "yes";
        Tables.Text "n/a"; Tables.Int (shared_cost `Naive); Tables.Int 0 ];
      [ Tables.Text "naive DAG (hierarchical)"; Tables.Text "yes";
        Tables.Text "n/a"; Tables.Text "6 (unsound)"; Tables.Int 2 ] ];
  Tables.note
    "hidden-conflict counts from E6; \"n/a\" marks plans the technique does\n\
     not distinguish (whole-object locks everything either way)."

(* ------------------------------------------------------------------ E12 *)

let e12_nested_common_data () =
  Tables.note
    "\n=== E12: nested common data (paper 2: common data may again contain \
     common data) ===\n\
     products -> lib1 -> ... -> libN; X one product under rule 4.";
  let rows =
    List.map
      (fun levels ->
        let db =
          Workload.Generator.nested
            { Workload.Generator.default_nested with levels }
        in
        let graph = Graph.build db in
        let table = Table.create () in
        let protocol = Protocol.create ~rule:Protocol.Rule_4 graph table in
        let prod1 = Oid.make ~relation:"products" ~key:"prod1" in
        let product = Option.get (Graph.object_node graph prod1) in
        let plan = Protocol.plan_node protocol ~txn:1 product Mode.X in
        let entry_locks =
          List.length
            (List.filter
               (fun { Protocol.reason; _ } ->
                 reason = Protocol.Downward_propagation)
               plan)
        in
        (* X on the deepest library item: proposed vs the all-parents rule *)
        let deepest = Oid.make ~relation:(Printf.sprintf "lib%d" levels)
            ~key:(Printf.sprintf "lib%d_1" levels) in
        let deepest_node = Option.get (Graph.object_node graph deepest) in
        let proposed_deep = Protocol.plan_node protocol ~txn:1 deepest_node Mode.X in
        let naive_deep =
          Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:deepest
        in
        [ Tables.Int levels; Tables.Int (List.length plan);
          Tables.Int entry_locks;
          Tables.Int (List.length proposed_deep);
          Tables.Int (List.length naive_deep) ])
      [ 1; 2; 3; 4 ]
  in
  Tables.print ~title:"E12: lock requests on nested common data"
    ~header:[ "library levels"; "X product (proposed)"; "entry points reached";
              "X deepest item (proposed)"; "X deepest item (naive DAG)" ]
    rows;
  Tables.note
    "expected shape: the proposed plan for a product grows only with the\n\
     entry points actually reachable; X-locking the deepest shared item\n\
     stays constant for the proposed protocol while the all-parents rule\n\
     must lock a chain per referencing component."

(* ------------------------------------------------------------------ E13 *)

let e13_deescalation () =
  Tables.note
    "\n=== E13: de-escalation (paper 5 future work, implemented) ===\n\
     A long transaction X-locked cell c1 as a whole but only works on robot\n\
     r1; a reader wants the c_objects.";
  let run ~deescalate =
    let env = fig1_env ~library_writable:true () in
    let c1 = node env.graph [ "db1"; "seg1"; "cells"; "c1" ] in
    let r1 = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
    let c_objects = node env.graph [ "db1"; "seg1"; "cells"; "c1"; "c_objects" ] in
    (match Protocol.acquire env.protocol ~wait:false ~txn:1 c1 Mode.X with
     | Protocol.Acquired _ -> ()
     | Protocol.Blocked _ -> invalid_arg "uncontended");
    if deescalate then begin
      match
        Colock.Escalation.deescalate env.protocol ~txn:1 c1
          ~keep:[ (r1, Mode.X) ]
      with
      | Ok _grants -> ()
      | Error _ -> invalid_arg "de-escalation failed"
    end;
    match Protocol.acquire env.protocol ~wait:false ~txn:2 c_objects Mode.S with
    | Protocol.Acquired _ -> "proceeds"
    | Protocol.Blocked _ -> "blocked"
  in
  Tables.print ~title:"E13: reader of c_objects vs long holder of cell c1"
    ~header:[ "long transaction"; "reader outcome" ]
    [ [ Tables.Text "holds X on the whole cell";
        Tables.Text (run ~deescalate:false) ];
      [ Tables.Text "de-escalated to X on robot r1";
        Tables.Text (run ~deescalate:true) ] ];
  Tables.note
    "expected shape: without de-escalation the reader waits for the whole\n\
     (possibly week-long) check-out; after trading the coarse X for the\n\
     fine X actually needed, the reader proceeds immediately."

let experiments =
  [ ("E1", e1_object_graphs); ("E2", e2_units); ("E3", e3_figure7);
    ("E4", e4_granule_problem); ("E5", e5_shared_exclusive_cost);
    ("E6", e6_from_the_side); ("E7", e7_authorization);
    ("E8", e8_escalation_anticipation); ("E9", e9_scaling_claim);
    ("E10", e10_disjoint_overhead); ("E11", e11_qualitative_matrix);
    ("E12", e12_nested_common_data); ("E13", e13_deescalation) ]
