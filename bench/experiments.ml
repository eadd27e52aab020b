(* The experiment harness: one entry per figure/claim of the paper (see
   DESIGN.md §3 and EXPERIMENTS.md).  Each experiment prints the table or
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

let run_mix graph technique_of_table specs =
  let table = Table.create () in
  let technique = technique_of_table table in
  let jobs = Sim.Scenario.compile graph technique specs in
  (Sim.Scenario.technique_name technique, Sim.Runner.run ~table jobs)

let proposed graph table = Sim.Scenario.Proposed (Protocol.create graph table)

let e4_granule_problem () =
  Tables.note
    "\n=== E4: the granule-oriented problem (paper 3.2.1) ===\n\
     Q1-like reads + Q2-like robot updates on 4 cells; sweep objects per cell.";
  let rows =
    List.concat_map
      (fun objects_per_cell ->
        let db =
          Workload.Generator.manufacturing
            { Workload.Generator.default_manufacturing with
              cells = 4; objects_per_cell; seed = 7 }
        in
        let graph = Graph.build db in
        let mix =
          { Sim.Scenario.default_mix with jobs = 60; arrival_gap = 5; seed = 23 }
        in
        let specs = Sim.Scenario.manufacturing_mix db graph mix in
        List.map
          (fun technique_of_table ->
            let name, metrics = run_mix graph technique_of_table specs in
            [ Tables.Int objects_per_cell; Tables.Text name;
              Tables.Int metrics.Sim.Metrics.committed;
              Tables.Int metrics.Sim.Metrics.makespan;
              Tables.Float (Sim.Metrics.throughput metrics);
              Tables.Int metrics.Sim.Metrics.total_wait;
              Tables.Int metrics.Sim.Metrics.lock_requests;
              Tables.Int metrics.Sim.Metrics.peak_lock_entries ])
          [ proposed graph; (fun _table -> Sim.Scenario.Whole_object);
            (fun _table -> Sim.Scenario.Tuple_level) ])
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

let e7_authorization () =
  Tables.note
    "\n=== E7: the authorization-oriented problem (paper 3.2.3, rule 4') ===\n\
     50 robot-update transactions; sweep the fraction allowed to modify the\n\
     effector library.";
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with
        cells = 6; effectors = 6; seed = 7 }
  in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 50; read_fraction = 0.0;
      arrival_gap = 2; seed = 41 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let run rule authorized_fraction =
    let table = Table.create () in
    let rights = Authz.Rights.create () in
    Authz.Rights.set_relation_default rights ~relation:"effectors" false;
    let on_begin txn =
      (* deterministic round-robin: of every 4 consecutive ids, the first
         [fraction * 4] are allowed to modify the library *)
      if float_of_int (txn mod 4) < authorized_fraction *. 4.0 then
        Authz.Rights.grant_modify rights ~txn ~relation:"effectors"
    in
    let protocol = Protocol.create ~rule ~rights graph table in
    let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
    Sim.Runner.run ~on_begin ~table jobs
  in
  let rows =
    List.concat_map
      (fun fraction ->
        let rule4 = run Protocol.Rule_4 fraction in
        let rule4_prime = run Protocol.Rule_4_prime fraction in
        [ [ Tables.Float fraction; Tables.Text "rule 4";
            Tables.Int rule4.Sim.Metrics.committed;
            Tables.Int rule4.Sim.Metrics.makespan;
            Tables.Int rule4.Sim.Metrics.total_wait;
            Tables.Int rule4.Sim.Metrics.deadlock_aborts ];
          [ Tables.Float fraction; Tables.Text "rule 4'";
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
        let _name, proposed_metrics = run_mix graph (proposed graph) specs in
        let _name, whole_metrics =
          run_mix graph (fun _table -> Sim.Scenario.Whole_object) specs
        in
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
        let db =
          Workload.Generator.manufacturing
            { Workload.Generator.default_manufacturing with
              cells = 6; effectors; seed = 7 }
        in
        let graph = Graph.build db in
        let mix =
          { Sim.Scenario.default_mix with jobs = 50; read_fraction = 0.0;
            arrival_gap = 2; seed = 41 }
        in
        let specs = Sim.Scenario.manufacturing_mix db graph mix in
        let run rule =
          let table = Table.create () in
          let rights = Authz.Rights.create () in
          Authz.Rights.set_relation_default rights ~relation:"effectors" false;
          let protocol = Protocol.create ~rule ~rights graph table in
          let jobs =
            Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs
          in
          Sim.Runner.run ~table jobs
        in
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
        let db =
          Workload.Generator.manufacturing
            { Workload.Generator.default_manufacturing with cells = 6; seed = 7 }
        in
        let graph = Graph.build db in
        let mix =
          { Sim.Scenario.default_mix with jobs = 30; access_cost;
            arrival_gap = 10; seed = 59 }
        in
        let specs = Sim.Scenario.manufacturing_mix db graph mix in
        let _name, proposed_metrics = run_mix graph (proposed graph) specs in
        let _name, whole_metrics =
          run_mix graph (fun _table -> Sim.Scenario.Whole_object) specs
        in
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
        let db =
          Workload.Generator.manufacturing
            { Workload.Generator.default_manufacturing with cells = 6; seed = 7 }
        in
        let graph = Graph.build db in
        let mix =
          { Sim.Scenario.default_mix with jobs = 50;
            read_fraction = 1.0 -. update_fraction; arrival_gap = 4; seed = 61 }
        in
        let specs = Sim.Scenario.manufacturing_mix db graph mix in
        let _name, proposed_metrics = run_mix graph (proposed graph) specs in
        let _name, whole_metrics =
          run_mix graph (fun _table -> Sim.Scenario.Whole_object) specs
        in
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

(* ------------------------------------------------------------------ E15 *)

let e15_resilience () =
  let module Policy = Lockmgr.Policy in
  Tables.note
    "\n=== E15: resolution strategies under rising MPL (and faults) ===\n\
     Manufacturing workload, every job arriving at once (MPL = jobs),\n\
     two steps per job so AB-BA deadlocks actually form; detection vs\n\
     lock-wait timeout vs hybrid, invariants audited after every event.";
  let chaos =
    { Sim.Fault.crash = 0.05; stall = 0.1; stall_factor = 4; hog = 0.05;
      fault_seed = 15 }
  in
  let run ~resolution ~faults ~mpl =
    let db =
      Workload.Generator.manufacturing
        { Workload.Generator.default_manufacturing with cells = 4; seed = 15 }
    in
    let graph = Graph.build db in
    let mix =
      { Sim.Scenario.default_mix with jobs = mpl; arrival_gap = 0;
        steps_per_job = 2; read_fraction = 0.2; seed = 15 }
    in
    let specs = Sim.Scenario.manufacturing_mix db graph mix in
    let table = Table.create () in
    let protocol = Protocol.create graph table in
    let jobs =
      Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs
    in
    let config =
      { Sim.Runner.default_config with
        engine = { Sim.Runner.default_config.engine with resolution };
        backoff = Policy.Exponential { base = 25; cap = 400; seed = 15 };
        hog_hold = 1500; check_invariants = true }
    in
    Sim.Runner.run ~config ~faults ~table jobs
  in
  let strategies =
    [ ("detection", Policy.Detection); ("timeout", Policy.Timeout 400);
      ("hybrid", Policy.Hybrid 400) ]
  in
  let mpls = [ 4; 8; 16; 32 ] in
  let results =
    List.concat_map
      (fun (name, resolution) ->
        List.concat_map
          (fun mpl ->
            let faultless =
              (name, mpl, "none", run ~resolution ~faults:Sim.Fault.none ~mpl)
            in
            if mpl = List.nth mpls (List.length mpls - 1) then
              [ faultless;
                ( name, mpl, Sim.Fault.to_string chaos,
                  run ~resolution ~faults:chaos ~mpl ) ]
            else [ faultless ])
          mpls)
      strategies
  in
  Tables.print ~title:"E15: detection vs timeout vs hybrid"
    ~header:[ "strategy"; "mpl"; "faults"; "committed"; "dl aborts";
              "to aborts"; "crashed"; "makespan"; "avg resp"; "total wait" ]
    (List.map
       (fun (name, mpl, faults, metrics) ->
         [ Tables.Text name; Tables.Int mpl; Tables.Text faults;
           Tables.Int metrics.Sim.Metrics.committed;
           Tables.Int metrics.Sim.Metrics.deadlock_aborts;
           Tables.Int metrics.Sim.Metrics.timeout_aborts;
           Tables.Int metrics.Sim.Metrics.crashed;
           Tables.Int metrics.Sim.Metrics.makespan;
           Tables.Float (Sim.Metrics.avg_response metrics);
           Tables.Int metrics.Sim.Metrics.total_wait ])
       results);
  Tables.note
    "expected shape: detection aborts exactly the cycle members and keeps\n\
     waits short; pure timeouts trade extra (false-positive) aborts for\n\
     zero detection work and still clear every stall; hybrid matches\n\
     detection until faults make victims unreachable by cycle search.";
  let json =
    Obs.Json.List
      (List.map
         (fun (name, mpl, faults, metrics) ->
           Obs.Json.Obj
             (("strategy", Obs.Json.String name)
              :: ("mpl", Obs.Json.Int mpl)
              :: ("faults", Obs.Json.String faults)
              :: List.map
                   (fun (key, value) -> (key, Obs.Json.Float value))
                   (Sim.Metrics.row metrics)))
         results)
  in
  let path = "BENCH_resilience.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ E16 *)

let e16_contention_profile () =
  Tables.note
    "\n=== E16: contention attribution across lock granularities ===\n\
     The same manufacturing workload under whole-object locking and the\n\
     proposed colock protocol, events folded through the contention\n\
     profiler: where in the object-specific lock graph does blocked time\n\
     actually accumulate?";
  let run selector =
    let db =
      Workload.Generator.manufacturing
        { Workload.Generator.default_manufacturing with cells = 6; seed = 16 }
    in
    let graph = Graph.build db in
    let mix =
      { Sim.Scenario.default_mix with jobs = 24; arrival_gap = 5;
        read_fraction = 0.4; seed = 16 }
    in
    let specs = Sim.Scenario.manufacturing_mix db graph mix in
    let sink, ring =
      Obs.Sink.memory ~capacity:262144 ~keep:Obs.Sink.not_sim_step ()
    in
    let table =
      Table.create ~obs:sink ~meta:(Graph.lu_resolver graph) ()
    in
    let technique =
      match selector with
      | `Proposed -> Sim.Scenario.Proposed (Protocol.create graph table)
      | `Whole_object -> Sim.Scenario.Whole_object
    in
    let jobs = Sim.Scenario.compile graph technique specs in
    let config =
      { Sim.Runner.default_config with snapshot_every = Some 100 }
    in
    let _metrics = Sim.Runner.run ~config ~table jobs in
    Obs.Profile.of_events
      ~label:(Sim.Scenario.technique_name technique)
      (Obs.Ring.to_list ring)
  in
  let reports = [ run `Whole_object; run `Proposed ] in
  let label report = Option.value ~default:"?" report.Obs.Profile.label in
  Tables.print ~title:"E16: blocked time by lockable-unit level"
    ~header:[ "technique"; "level"; "blocked"; "waits"; "resources"; "share" ]
    (List.concat_map
       (fun report ->
         let total = report.Obs.Profile.total_blocked in
         List.map
           (fun level ->
             [ Tables.Text (label report);
               Tables.Text level.Obs.Profile.v_level;
               Tables.Float level.Obs.Profile.v_blocked;
               Tables.Int level.Obs.Profile.v_waits;
               Tables.Int level.Obs.Profile.v_resources;
               Tables.Float
                 (if total > 0.0 then level.Obs.Profile.v_blocked /. total
                  else 0.0) ])
           report.Obs.Profile.levels)
       reports);
  Tables.print ~title:"E16: blocked time by lock-graph depth"
    ~header:[ "technique"; "depth"; "blocked"; "waits" ]
    (List.concat_map
       (fun report ->
         List.map
           (fun depth ->
             [ Tables.Text (label report);
               Tables.Int depth.Obs.Profile.d_depth;
               Tables.Float depth.Obs.Profile.d_blocked;
               Tables.Int depth.Obs.Profile.d_waits ])
           report.Obs.Profile.depths)
       reports);
  Tables.note
    "expected shape: whole-object locking piles every blocked tick onto\n\
     the object roots (one shallow depth, few hot resources), while the\n\
     colock protocol pushes contention down to the BLU/HoLU leaves it\n\
     actually touches — less total blocked time, spread deeper.";
  let json = Obs.Json.List (List.map Obs.Profile.to_json reports) in
  let path = "BENCH_contention.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ E17 *)

let e17_monitoring_overhead () =
  Tables.note
    "\n=== E17: what does watching cost? ===\n\
     The same simulated workload four ways: observability off, cumulative\n\
     counters only (collector), the full live monitor (gauges + sliding\n\
     windows, LU-labelled), and the monitor behind a live /metrics\n\
     endpoint that gets scraped. Wall-clock per run, so the overhead of\n\
     the monitoring pipeline itself is the measurement.";
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 17 }
  in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 40; arrival_gap = 5;
      read_fraction = 0.4; seed = 17 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let scrape ~port path =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close socket)
      (fun () ->
        Unix.connect socket
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let request =
          Printf.sprintf
            "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            path
        in
        ignore
          (Unix.write_substring socket request 0 (String.length request)
            : int);
        let chunk = Bytes.create 4096 in
        let total = ref 0 in
        let rec drain () =
          let read = Unix.read socket chunk 0 (Bytes.length chunk) in
          if read > 0 then begin
            total := !total + read;
            drain ()
          end
        in
        drain ();
        !total)
  in
  let run_once mode =
    let sink, monitor =
      match mode with
      | `Off -> (None, None)
      | `Counters ->
        let sink = Obs.Sink.create [] in
        let collector = Obs.Collector.create () in
        Obs.Sink.attach sink (Obs.Collector.handle collector);
        (Some sink, None)
      | `Monitor | `Serve ->
        let sink = Obs.Sink.create [] in
        let monitor = Obs.Monitor.create ~span:200.0 () in
        Obs.Sink.attach sink (Obs.Monitor.handle monitor);
        (Some sink, Some monitor)
    in
    let server =
      match mode, monitor with
      | `Serve, Some monitor ->
        Some
          (Obs.Http.start ~port:0 (fun path ->
               match path with
               | "/metrics" ->
                 let body =
                   Obs.Monitor.locked monitor (fun () ->
                       Obs.Expo.render (Obs.Monitor.registry monitor))
                 in
                 Some
                   { Obs.Http.status = 200;
                     content_type = Obs.Expo.content_type; body }
               | _ -> None))
      | _ -> None
    in
    let table = Table.create ?obs:sink ~meta:(Graph.lu_resolver graph) () in
    let technique = Sim.Scenario.Proposed (Protocol.create graph table) in
    let jobs = Sim.Scenario.compile graph technique specs in
    let started = Unix.gettimeofday () in
    let metrics = Sim.Runner.run ~table jobs in
    let scraped =
      match server with
      | Some server -> scrape ~port:(Obs.Http.port server) "/metrics"
      | None -> 0
    in
    let elapsed = (Unix.gettimeofday () -. started) *. 1000.0 in
    (match server with Some server -> Obs.Http.stop server | None -> ());
    let events =
      match sink with Some sink -> Obs.Sink.emit_count sink | None -> 0
    in
    (elapsed, events, scraped, metrics.Sim.Metrics.committed)
  in
  let reps = 7 in
  let measure mode =
    (* one warmup, then the median of [reps] wall-clock runs *)
    let (_ : float * int * int * int) = run_once mode in
    let samples = List.init reps (fun _rep -> run_once mode) in
    let times =
      List.sort Float.compare
        (List.map (fun (elapsed, _, _, _) -> elapsed) samples)
    in
    let median = List.nth times (reps / 2) in
    let _, events, scraped, committed = List.hd samples in
    (median, events, scraped, committed)
  in
  let modes =
    [ ("off", `Off); ("counters", `Counters); ("monitor", `Monitor);
      ("monitor+serve", `Serve) ]
  in
  let results =
    List.map (fun (name, mode) -> (name, measure mode)) modes
  in
  let base =
    match results with
    | (_, (median, _, _, _)) :: _ -> median
    | [] -> 0.0
  in
  Tables.print ~title:"E17: monitoring overhead (median wall ms per run)"
    ~header:[ "mode"; "ms"; "vs off"; "events"; "scrape bytes" ]
    (List.map
       (fun (name, (median, events, scraped, _committed)) ->
         [ Tables.Text name; Tables.Float median;
           Tables.Float (if base > 0.0 then median /. base else 0.0);
           Tables.Int events; Tables.Int scraped ])
       results);
  Tables.note
    "expected shape: counters cost little over off; the live monitor adds\n\
     window bookkeeping per event; serving adds a background accept\n\
     thread plus rendering per scrape. All should stay within a small\n\
     multiple of the bare run — monitoring is meant to be always-on.";
  let json =
    Obs.Json.Obj
      (List.map
         (fun (name, (median, events, scraped, committed)) ->
           ( name,
             Obs.Json.Obj
               [ ("median_ms", Obs.Json.Float median);
                 ( "vs_off",
                   Obs.Json.Float
                     (if base > 0.0 then median /. base else 0.0) );
                 ("events", Obs.Json.Float (float_of_int events));
                 ("scrape_bytes", Obs.Json.Float (float_of_int scraped));
                 ("committed", Obs.Json.Float (float_of_int committed)) ] ))
         results)
  in
  let path = "BENCH_obs_overhead.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ E19 *)

let e19_overload_control () =
  let module Policy = Lockmgr.Policy in
  Tables.note
    "\n=== E19: closed-loop overload control under rising MPL ===\n\
     Whole-object locking (the paper's coarse baseline, so conflicts are\n\
     brutal), every job arriving at once (MPL = jobs), two steps per job.\n\
     Uncontrolled restarting vs wait-depth limiting (WDL) vs the adaptive\n\
     AIMD admission gate fed by live monitor windows.";
  let run ~mode ~mpl =
    let db =
      Workload.Generator.manufacturing
        { Workload.Generator.default_manufacturing with cells = 4; seed = 19 }
    in
    let graph = Graph.build db in
    let mix =
      { Sim.Scenario.default_mix with jobs = mpl; arrival_gap = 0;
        steps_per_job = 2; read_fraction = 0.2; seed = 19 }
    in
    let specs = Sim.Scenario.manufacturing_mix db graph mix in
    let table = Table.create ~meta:(Graph.lu_resolver graph) () in
    let jobs = Sim.Scenario.compile graph Sim.Scenario.Whole_object specs in
    let base =
      { Sim.Runner.default_config with
        backoff = Policy.Exponential { base = 25; cap = 400; seed = 19 };
        check_invariants = true }
    in
    let config =
      match mode with
      | `Uncontrolled -> base
      | `Wdl ->
        { base with
          engine =
            { base.Sim.Runner.engine with restart = Policy.Wait_depth 1 } }
      | `Admission ->
        { base with
          overload =
            Some
              { Sim.Runner.admission =
                  Some
                    { Robust.Admission.default_config with
                      initial = 4; min_limit = 2; max_limit = 16;
                      (* queue holds the whole backlog: the gate schedules
                         work, it does not drop it *)
                      queue_capacity = mpl };
                controller = Robust.Controller.default_config;
                budget = Some Robust.Budget.default_config;
                breaker = Some Robust.Breaker.default_config } }
    in
    Sim.Runner.run ~config ~table jobs
  in
  let modes =
    [ ("uncontrolled", `Uncontrolled); ("wdl:1", `Wdl);
      ("admission", `Admission) ]
  in
  let mpls = [ 8; 16; 32; 64 ] in
  let results =
    List.concat_map
      (fun (name, mode) ->
        List.map (fun mpl -> (name, mpl, run ~mode ~mpl)) mpls)
      modes
  in
  Tables.print ~title:"E19: uncontrolled vs WDL vs adaptive admission"
    ~header:[ "mode"; "mpl"; "committed"; "aborts"; "wdl"; "gaveup"; "shed";
              "makespan"; "thruput"; "avg resp" ]
    (List.map
       (fun (name, mpl, metrics) ->
         [ Tables.Text name; Tables.Int mpl;
           Tables.Int metrics.Sim.Metrics.committed;
           Tables.Int
             (metrics.Sim.Metrics.deadlock_aborts
              + metrics.Sim.Metrics.timeout_aborts);
           Tables.Int metrics.Sim.Metrics.wdl_aborts;
           Tables.Int metrics.Sim.Metrics.gave_up;
           Tables.Int metrics.Sim.Metrics.shed;
           Tables.Int metrics.Sim.Metrics.makespan;
           Tables.Float (Sim.Metrics.throughput metrics);
           Tables.Float (Sim.Metrics.avg_response metrics) ])
       results);
  Tables.note
    "expected shape: uncontrolled deadlock-restart churn grows with MPL\n\
     and collapses committed throughput at the top of the sweep; WDL\n\
     caps wait chains early and converts the churn into cheap restarts;\n\
     the admission gate holds concurrency near the sweet spot, so the\n\
     backlog drains at a steady rate regardless of offered MPL.";
  let json =
    Obs.Json.List
      (List.map
         (fun (name, mpl, metrics) ->
           Obs.Json.Obj
             (("mode", Obs.Json.String name)
              :: ("mpl", Obs.Json.Int mpl)
              :: List.map
                   (fun (key, value) -> (key, Obs.Json.Float value))
                   (Sim.Metrics.row metrics)))
         results)
  in
  let path = "BENCH_overload.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ E20 *)

let e20_blame_overhead () =
  Tables.note
    "\n=== E20: what does assigning blame cost — and is it exact? ===\n\
     The same simulated workload with a plain trace capture (the\n\
     [--trace] baseline) and with the online blame accumulator attached:\n\
     the always-on delta must stay within 10% of the bare capture. The\n\
     offline folds (profile + blame + flame) are priced separately in\n\
     absolute ms, and every attribution identity must hold on the\n\
     captured stream.";
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 20 }
  in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 300; arrival_gap = 5;
      read_fraction = 0.4; seed = 20 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let run_once mode =
    let sink = Obs.Sink.create [] in
    let captured = ref [] in
    Obs.Sink.attach sink (fun event -> captured := event :: !captured);
    (match mode with
     | `Trace -> ()
     | `Blame ->
       let blame = Obs.Blame.create () in
       Obs.Sink.attach sink (Obs.Blame.handle blame));
    let table = Table.create ~obs:sink ~meta:(Graph.lu_resolver graph) () in
    let technique = Sim.Scenario.Proposed (Protocol.create graph table) in
    let jobs = Sim.Scenario.compile graph technique specs in
    let started = Unix.gettimeofday () in
    let (_ : Sim.Metrics.t) = Sim.Runner.run ~table jobs in
    let elapsed = (Unix.gettimeofday () -. started) *. 1000.0 in
    (elapsed, List.rev !captured)
  in
  let reps = 7 in
  let median_of samples = List.nth (List.sort Float.compare samples) (reps / 2) in
  let measure mode =
    (* one warmup, then the median of [reps] wall-clock runs *)
    let (_ : float * Obs.Event.t list) = run_once mode in
    let samples = List.init reps (fun _rep -> run_once mode) in
    let median = median_of (List.map (fun (elapsed, _) -> elapsed) samples) in
    let _, events = List.hd samples in
    (median, events)
  in
  let modes = [ ("trace", `Trace); ("+blame", `Blame) ] in
  let results = List.map (fun (name, mode) -> (name, measure mode)) modes in
  let base =
    match results with (_, (median, _)) :: _ -> median | [] -> 0.0
  in
  let events =
    match results with
    | (_, (_, events)) :: _ -> events
    | [] -> []
  in
  (* the offline folds are post-processing, not per-run overhead: price
     them on their own, as absolute wall time over the captured stream *)
  let fold_once () =
    let started = Unix.gettimeofday () in
    let profile = Obs.Profile.of_events events in
    let flame = Obs.Flame.of_report profile in
    let report = Obs.Blame.of_events events in
    ignore (Obs.Flame.total flame : float);
    ignore (report.Obs.Blame.total_blamed : float);
    (Unix.gettimeofday () -. started) *. 1000.0
  in
  let (_ : float) = fold_once () in
  let fold_ms = median_of (List.init reps (fun _rep -> fold_once ())) in
  (* --------------------------- attribution exactness on the captured run *)
  let profile = Obs.Profile.of_events events in
  let report = Obs.Blame.of_events events in
  let flame = Obs.Flame.of_report profile in
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a) in
  let share_sum wait =
    List.fold_left
      (fun acc { Obs.Blame.sh_blame; _ } -> acc +. sh_blame)
      0.0 wait.Obs.Blame.w_shares
  in
  let blocked_agree =
    close profile.Obs.Profile.total_blocked report.Obs.Blame.total_blocked
  in
  let blame_conserves =
    close report.Obs.Blame.total_blocked report.Obs.Blame.total_blamed
  in
  let shares_exact =
    List.for_all
      (fun wait -> close (Obs.Blame.duration wait) (share_sum wait))
      report.Obs.Blame.waits
  in
  let blockers_partition =
    close report.Obs.Blame.total_blamed
      (List.fold_left
         (fun acc { Obs.Blame.k_blame; _ } -> acc +. k_blame)
         0.0 report.Obs.Blame.blockers)
  in
  let flame_total =
    close profile.Obs.Profile.total_blocked (Obs.Flame.total flame)
  in
  (* the bounded sketch must agree exactly with the true per-resource
     blocked time while the catalog fits in k *)
  let sketch = Obs.Sketch.create ~k:32 in
  List.iter
    (fun { Obs.Profile.r_resource; r_blocked; _ } ->
      ignore (Obs.Sketch.observe ~weight:r_blocked sketch r_resource
              : string option))
    profile.Obs.Profile.resources;
  let sketch_exact =
    List.length profile.Obs.Profile.resources > 32
    || List.for_all
         (fun { Obs.Profile.r_resource; r_blocked; _ } ->
           match Obs.Sketch.find sketch r_resource with
           | Some (estimate, error) -> close estimate r_blocked && error = 0.0
           | None -> false)
         profile.Obs.Profile.resources
  in
  let checks =
    [ ("blame total = profile total", blocked_agree);
      ("blamed = blocked (conservation)", blame_conserves);
      ("wait shares sum to durations", shares_exact);
      ("blocker table partitions the total", blockers_partition);
      ("flame total = profile total", flame_total);
      ("sketch exact below capacity", sketch_exact) ]
  in
  Tables.print ~title:"E20: blame pipeline overhead (median wall ms per run)"
    ~header:[ "mode"; "ms"; "vs trace"; "events" ]
    (List.map
       (fun (name, (median, events)) ->
         [ Tables.Text name; Tables.Float median;
           Tables.Float (if base > 0.0 then median /. base else 0.0);
           Tables.Int (List.length events) ])
       results
     @ [ [ Tables.Text "offline folds"; Tables.Float fold_ms;
           Tables.Text "-"; Tables.Int (List.length events) ] ]);
  Tables.print ~title:"E20: attribution exactness"
    ~header:[ "identity"; "holds" ]
    (List.map
       (fun (name, holds) ->
         [ Tables.Text name; Tables.Text (if holds then "yes" else "NO") ])
       checks);
  Tables.note
    "expected shape: the online blame accumulator costs hashtable work\n\
     per lock event, well under the 10% budget over the bare capture\n\
     (that is the number that must stay small — it is always on); the\n\
     offline folds are one pass over the captured list, priced in\n\
     absolute ms because they run on demand. Every identity must hold —\n\
     blame is only useful if it is conservative.";
  let json =
    Obs.Json.Obj
      (List.map
         (fun (name, (median, events)) ->
           ( name,
             Obs.Json.Obj
               [ ("median_ms", Obs.Json.Float median);
                 ( "vs_trace",
                   Obs.Json.Float
                     (if base > 0.0 then median /. base else 0.0) );
                 ("events", Obs.Json.Int (List.length events)) ] ))
         results
       @ [ ("offline_folds_ms", Obs.Json.Float fold_ms);
           ( "exactness",
             Obs.Json.Obj
               (List.map
                  (fun (name, holds) ->
                    (name, Obs.Json.Bool holds))
                  checks) );
           ( "total_blocked",
             Obs.Json.Float profile.Obs.Profile.total_blocked ) ])
  in
  let path = "BENCH_blame.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ E21 *)

let e21_certifier () =
  Tables.note
    "\n=== E21: how fast is the certifier — and is it exact? ===\n\
     A real simulated workload is captured once; the offline certifier\n\
     then replays the stream and must (a) certify the real run clean,\n\
     (b) reject the same stream with a fabricated conflict cycle or a\n\
     post-release acquire spliced in, blaming exactly the corrupted\n\
     transactions, and (c) do all of it at a throughput that keeps\n\
     certification viable as a routine post-run gate.";
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 21 }
  in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 300; arrival_gap = 5;
      read_fraction = 0.4; seed = 21 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let sink = Obs.Sink.create [] in
  let captured = ref [] in
  Obs.Sink.attach sink (fun event -> captured := event :: !captured);
  let table = Table.create ~obs:sink ~meta:(Graph.lu_resolver graph) () in
  let technique = Sim.Scenario.Proposed (Protocol.create graph table) in
  let jobs = Sim.Scenario.compile graph technique specs in
  let (_ : Sim.Metrics.t) = Sim.Runner.run ~table jobs in
  let events = List.rev !captured in
  let certify stream =
    Obs.Certify.of_events ~modes:Mode.certify_modes stream
  in
  let reps = 7 in
  let median_of samples =
    List.nth (List.sort Float.compare samples) (reps / 2)
  in
  let certify_ms () =
    let started = Unix.gettimeofday () in
    let (_ : Obs.Certify.certificate) = certify events in
    (Unix.gettimeofday () -. started) *. 1000.0
  in
  let (_ : float) = certify_ms () in
  let median_ms = median_of (List.init reps (fun _rep -> certify_ms ())) in
  let certificate = certify events in
  let edges = Lazy.force certificate.Obs.Certify.graph_edges in
  let events_per_sec =
    if median_ms > 0.0 then
      float_of_int certificate.Obs.Certify.events /. (median_ms /. 1000.0)
    else 0.0
  in
  (* ------------------------------------------------ exactness identities *)
  let at time kind = { Obs.Event.time; kind } in
  let grant txn resource =
    at 1e9
      (Obs.Event.Lock_granted
         { txn; resource; mode = "X"; immediate = true; lu = None;
           holders = [] })
  in
  let release txn resource =
    at 1e9 (Obs.Event.Lock_released { txn; resource; lu = None })
  in
  let commit txn = at 1e9 (Obs.Event.Txn_commit { txn }) in
  let t_a = 900001 and t_b = 900002 in
  (* a criss-cross on fresh resources: T_a before T_b on ca, T_b before
     T_a on cb — exactly one conflict cycle between the two *)
  let cycled =
    events
    @ [ grant t_a "bench-ca"; release t_a "bench-ca";
        grant t_b "bench-ca"; release t_b "bench-ca";
        grant t_b "bench-cb"; release t_b "bench-cb";
        grant t_a "bench-cb"; release t_a "bench-cb";
        commit t_a; commit t_b ]
  in
  (* one transaction that keeps growing after an uncovered release *)
  let nontwopl =
    events
    @ [ grant t_a "bench-ca"; release t_a "bench-ca";
        grant t_a "bench-cb"; commit t_a; release t_a "bench-cb" ]
  in
  let cycle_certificate = certify cycled in
  let phase_certificate = certify nontwopl in
  let injected_txn = function
    | Obs.Certify.Unserializable { cycle; _ } ->
      List.for_all (fun txn -> txn = t_a || txn = t_b) cycle
    | Obs.Certify.Phase_violation { txn; _ }
    | Obs.Certify.Concurrent_conflict { txn; _ }
    | Obs.Certify.Uncovered_grant { txn; _ }
    | Obs.Certify.Escalation_violation { txn; _ } ->
      txn = t_a || txn = t_b
  in
  let cycle_caught =
    List.exists
      (function Obs.Certify.Unserializable _ -> true | _ -> false)
      cycle_certificate.Obs.Certify.violations
  in
  let phase_caught =
    List.exists
      (function Obs.Certify.Phase_violation _ -> true | _ -> false)
      phase_certificate.Obs.Certify.violations
  in
  let endpoints_committed =
    List.for_all
      (fun edge ->
        List.mem edge.Obs.Certify.e_from certificate.Obs.Certify.graph_txns
        && List.mem edge.Obs.Certify.e_to certificate.Obs.Certify.graph_txns)
      edges
  in
  let dot = Obs.Dot.render certificate in
  let dot_covers_graph =
    List.for_all
      (fun txn ->
        let needle = Printf.sprintf "t%d [" txn in
        let length = String.length needle in
        let rec scan index =
          index + length <= String.length dot
          && (String.sub dot index length = needle || scan (index + 1))
        in
        scan 0)
      certificate.Obs.Certify.graph_txns
  in
  let algebra_agrees =
    let ours = Obs.Certify.default_modes and theirs = Mode.certify_modes in
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            ours.Obs.Certify.m_compatible a b
            = theirs.Obs.Certify.m_compatible a b
            && ours.Obs.Certify.m_sup a b = theirs.Obs.Certify.m_sup a b)
          ours.Obs.Certify.m_known)
      ours.Obs.Certify.m_known
  in
  let checks =
    [ ("real run certifies clean", Obs.Certify.certified certificate);
      ("edge endpoints are committed txns", endpoints_committed);
      ("dot render covers the graph", dot_covers_graph);
      ("mode algebras agree pointwise", algebra_agrees);
      ( "injected cycle rejected, blame exact",
        cycle_caught
        && List.for_all injected_txn cycle_certificate.Obs.Certify.violations
      );
      ( "injected 2PL break rejected, blame exact",
        phase_caught
        && List.for_all injected_txn phase_certificate.Obs.Certify.violations
      ) ]
  in
  Tables.print ~title:"E21: certifier throughput (median of 7 passes)"
    ~header:[ "events"; "committed"; "edges"; "ms"; "events/sec" ]
    [ [ Tables.Int certificate.Obs.Certify.events;
        Tables.Int certificate.Obs.Certify.committed;
        Tables.Int (List.length edges);
        Tables.Float median_ms; Tables.Float events_per_sec ] ];
  Tables.print ~title:"E21: certification exactness"
    ~header:[ "identity"; "holds" ]
    (List.map
       (fun (name, holds) ->
         [ Tables.Text name; Tables.Text (if holds then "yes" else "NO") ])
       checks);
  Tables.note
    "expected shape: one pass over the stream with hashtable work per\n\
     lock event, then a per-resource conflict frontier and Kahn's\n\
     algorithm over the committed transactions, both linear in the\n\
     episodes; the timed passes never build the all-pairs graph, which\n\
     only the edges column forces. So certifying every soak run is\n\
     cheap. The identities are the point: the certifier must pass what\n\
     the real lock table produced and reject both corruption patterns,\n\
     blaming only the spliced-in transactions.";
  let json =
    Obs.Json.Obj
      [ ("events", Obs.Json.Int certificate.Obs.Certify.events);
        ("committed", Obs.Json.Int certificate.Obs.Certify.committed);
        ("edges", Obs.Json.Int (List.length edges));
        ("median_ms", Obs.Json.Float median_ms);
        ("events_per_sec", Obs.Json.Float events_per_sec);
        ( "exactness",
          Obs.Json.Obj
            (List.map (fun (name, holds) -> (name, Obs.Json.Bool holds))
               checks) ) ]
  in
  let path = "BENCH_certify.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

let e22_differential_attribution () =
  Tables.note
    "\n=== E22: does differential attribution conserve the delta? ===\n\
     Two live captures of the same manufacturing workload — a calm run\n\
     and a contended run (denser arrivals) — are profiled and diffed.\n\
     Every attribution table (levels, depths, resources, conflict cells,\n\
     blockers) must sum exactly to the total wait-time delta: an\n\
     explanation that invents or loses ticks is worse than none. A\n\
     self-diff must attribute exactly zero everywhere, and a run present\n\
     on one side only must surface as drift, never vanish.";
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 6; seed = 22 }
  in
  let graph = Graph.build db in
  let capture ~arrival_gap ~label =
    let sink = Obs.Sink.create [] in
    let captured = ref [] in
    Obs.Sink.attach sink (fun event -> captured := event :: !captured);
    let table = Table.create ~obs:sink ~meta:(Graph.lu_resolver graph) () in
    let technique = Sim.Scenario.Proposed (Protocol.create graph table) in
    let mix =
      { Sim.Scenario.default_mix with jobs = 250; arrival_gap;
        read_fraction = 0.4; seed = 22 }
    in
    let specs = Sim.Scenario.manufacturing_mix db graph mix in
    let jobs = Sim.Scenario.compile graph technique specs in
    let (_ : Sim.Metrics.t) = Sim.Runner.run ~table jobs in
    Obs.Profile.of_events ~label (List.rev !captured)
  in
  let base = capture ~arrival_gap:6 ~label:"calm" in
  let cand = capture ~arrival_gap:2 ~label:"contended" in
  let report = Obs.Diff.of_reports ~base ~cand () in
  let partitions =
    [ ("levels", report.Obs.Diff.levels); ("depths", report.Obs.Diff.depths);
      ("resources", report.Obs.Diff.resources);
      ("cells", report.Obs.Diff.cells);
      ("blockers", report.Obs.Diff.blockers) ]
  in
  let partition_sum entries =
    List.fold_left
      (fun sum (entry : Obs.Diff.entry) -> sum +. entry.e_delta)
      0.0 entries
  in
  let self = Obs.Diff.of_reports ~base ~cand:base () in
  let self_zero =
    self.Obs.Diff.delta = 0.0
    && List.for_all
         (fun (entry : Obs.Diff.entry) -> entry.e_delta = 0.0)
         (self.Obs.Diff.levels @ self.Obs.Diff.depths
          @ self.Obs.Diff.resources @ self.Obs.Diff.cells
          @ self.Obs.Diff.blockers)
  in
  let drift =
    Obs.Diff.pair_reports ~base:[ base; cand ] ~cand:[ base ]
  in
  let drift_surfaced =
    List.length drift.Obs.Diff.pairs = 1
    && drift.Obs.Diff.only_base = [ "contended" ]
    && drift.Obs.Diff.only_cand = []
  in
  let reps = 7 in
  let median_of samples =
    List.nth (List.sort Float.compare samples) (reps / 2)
  in
  let diff_ms () =
    let started = Unix.gettimeofday () in
    let (_ : Obs.Diff.report) = Obs.Diff.of_reports ~base ~cand () in
    (Unix.gettimeofday () -. started) *. 1000.0
  in
  let (_ : float) = diff_ms () in
  let median_ms = median_of (List.init reps (fun _rep -> diff_ms ())) in
  let checks =
    ("conserves (1e-9 relative)", Obs.Diff.conserves report)
    :: ("self-diff attributes exactly zero", self_zero)
    :: ("one-sided run surfaces as drift", drift_surfaced)
    :: List.map
         (fun (name, entries) ->
           ( Printf.sprintf "%s sum equals delta to the tick" name,
             partition_sum entries = report.Obs.Diff.delta ))
         partitions
  in
  Tables.print ~title:"E22: calm vs contended (proposed technique)"
    ~header:[ "side"; "blocked"; "waits" ]
    [ [ Tables.Text "base (calm)";
        Tables.Float report.Obs.Diff.base_total;
        Tables.Int report.Obs.Diff.base_waits ];
      [ Tables.Text "cand (contended)";
        Tables.Float report.Obs.Diff.cand_total;
        Tables.Int report.Obs.Diff.cand_waits ];
      [ Tables.Text "delta"; Tables.Float report.Obs.Diff.delta;
        Tables.Int (report.Obs.Diff.cand_waits - report.Obs.Diff.base_waits)
      ] ];
  Tables.print
    ~title:"E22: attribution exactness (median diff over 7 passes)"
    ~header:[ "identity"; "holds" ]
    (List.map
       (fun (name, holds) ->
         [ Tables.Text name; Tables.Text (if holds then "yes" else "NO") ])
       checks);
  Tables.note
    (Printf.sprintf
       "median of_reports: %.3f ms over %d+%d spans.  Expected shape: the\n\
        residue-folding discipline (largest share absorbs the float dust)\n\
        makes every table a true partition of the delta — the same\n\
        invariant colock why relies on when it explains a regression."
       median_ms report.Obs.Diff.base_waits report.Obs.Diff.cand_waits);
  let json =
    Obs.Json.Obj
      [ ("base_blocked", Obs.Json.Float report.Obs.Diff.base_total);
        ("cand_blocked", Obs.Json.Float report.Obs.Diff.cand_total);
        ("delta", Obs.Json.Float report.Obs.Diff.delta);
        ("base_waits", Obs.Json.Int report.Obs.Diff.base_waits);
        ("cand_waits", Obs.Json.Int report.Obs.Diff.cand_waits);
        ("median_ms", Obs.Json.Float median_ms);
        ( "exactness",
          Obs.Json.Obj
            (List.map (fun (name, holds) -> (name, Obs.Json.Bool holds))
               checks) ) ]
  in
  let path = "BENCH_diffprof.json" in
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

let run_all () =
  e1_object_graphs ();
  e2_units ();
  e3_figure7 ();
  e4_granule_problem ();
  e5_shared_exclusive_cost ();
  e6_from_the_side ();
  e7_authorization ();
  e8_escalation_anticipation ();
  e9_scaling_claim ();
  e10_disjoint_overhead ();
  e11_qualitative_matrix ();
  e12_nested_common_data ();
  e13_deescalation ();
  e15_resilience ();
  e16_contention_profile ();
  e17_monitoring_overhead ();
  e19_overload_control ();
  e20_blame_overhead ();
  e21_certifier ();
  e22_differential_attribution ()

let by_name = [
  ("E1", e1_object_graphs); ("E2", e2_units); ("E3", e3_figure7);
  ("E4", e4_granule_problem); ("E5", e5_shared_exclusive_cost);
  ("E6", e6_from_the_side); ("E7", e7_authorization);
  ("E8", e8_escalation_anticipation); ("E9", e9_scaling_claim);
  ("E10", e10_disjoint_overhead); ("E11", e11_qualitative_matrix);
  ("E12", e12_nested_common_data); ("E13", e13_deescalation);
  ("E15", e15_resilience); ("E16", e16_contention_profile);
  ("E17", e17_monitoring_overhead); ("E19", e19_overload_control);
  ("E20", e20_blame_overhead); ("E21", e21_certifier);
  ("E22", e22_differential_attribution);
]
