(* Soak tests: larger databases and workloads, asserting global invariants
   end to end (everything commits, the lock table drains, plans stay sound
   at scale, determinism holds across techniques). *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Oid = Nf2.Oid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let big_db () =
  Workload.Generator.manufacturing
    { Workload.Generator.cells = 24; objects_per_cell = 50;
      robots_per_cell = 6; effectors = 20; effectors_per_robot = 3; seed = 3 }

let test_big_graph_builds () =
  let db = big_db () in
  let graph = Graph.build db in
  (* db + 2 segs + 2 rels + 20*3 effector nodes
     + 24 cells * (3 + 50*3 + 1 + 6*7) = ~4.8k units *)
  check_bool "thousands of units" true (Graph.node_count graph > 4_000);
  check_int "ref integrity" 0 (List.length (Nf2.Database.check_ref_integrity db));
  (* every effector is referenced at least once with 24*6*3 draws over 20 *)
  let catalog = Nf2.Database.catalog db in
  check_bool "effectors shared" true (Nf2.Catalog.is_shared catalog "effectors")

let test_500_transactions_commit () =
  let db = big_db () in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 500; arrival_gap = 2;
      read_fraction = 0.5; library_update_fraction = 0.02; seed = 77 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  let table = Table.create () in
  let protocol = Protocol.create graph table in
  let jobs = Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs in
  let metrics = Sim.Runner.run ~table jobs in
  check_int "all 500 commit" 500 metrics.Sim.Metrics.committed;
  check_int "table drained" 0 (Table.entry_count table);
  check_bool "work happened" true (metrics.Sim.Metrics.lock_requests > 500)

let test_all_techniques_complete_identically_sized_load () =
  let db = big_db () in
  let graph = Graph.build db in
  let mix =
    { Sim.Scenario.default_mix with jobs = 120; arrival_gap = 3; seed = 31 }
  in
  let specs = Sim.Scenario.manufacturing_mix db graph mix in
  List.iter
    (fun technique_of_table ->
      let table = Table.create () in
      let technique = technique_of_table table in
      let jobs = Sim.Scenario.compile graph technique specs in
      let metrics = Sim.Runner.run ~table jobs in
      check_int
        (Sim.Scenario.technique_name technique ^ ": all jobs done")
        120
        (metrics.Sim.Metrics.committed + metrics.Sim.Metrics.gave_up);
      check_int
        (Sim.Scenario.technique_name technique ^ ": drained")
        0 (Table.entry_count table))
    [ (fun table -> Sim.Scenario.Proposed (Protocol.create graph table));
      (fun _table -> Sim.Scenario.Whole_object);
      (fun _table -> Sim.Scenario.Tuple_level) ]

let test_deep_nested_scale () =
  let db =
    Workload.Generator.nested
      { Workload.Generator.levels = 5; per_level = 10; refs_per_object = 3;
        nested_seed = 2 }
  in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Protocol.create ~rule:Protocol.Rule_4 graph table in
  (* X every product in turn; plans stay bounded by reachable entries *)
  let products = Option.get (Nf2.Database.relation db "products") in
  Nf2.Relation.fold
    (fun key _value () ->
      let node =
        Option.get (Graph.object_node graph (Oid.make ~relation:"products" ~key))
      in
      let steps = Protocol.plan_node protocol ~txn:1 node Mode.X in
      check_bool (key ^ ": plan bounded") true (List.length steps <= 200);
      check_bool (key ^ ": propagation present") true
        (List.exists
           (fun { Protocol.reason; _ } -> reason = Protocol.Downward_propagation)
           steps))
    products ();
  (* serial execution through the table is conflict-free *)
  Nf2.Relation.fold
    (fun key _value () ->
      let node =
        Option.get (Graph.object_node graph (Oid.make ~relation:"products" ~key))
      in
      (match Protocol.acquire protocol ~wait:false ~txn:1 node Mode.X with
       | Protocol.Acquired _ -> ()
       | Protocol.Blocked _ -> Alcotest.fail "self-conflict");
      let (_ : Table.grant list) = Protocol.end_of_transaction protocol ~txn:1 in
      ())
    products ()

let test_escalation_storm () =
  (* 30 transactions each locking many fine granules, escalating, and
     releasing: counts stay consistent. *)
  let db = Workload.Figure1.database ~c_objects:64 () in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Protocol.create graph table in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  for txn = 1 to 30 do
    List.iter
      (fun member ->
        match Protocol.acquire protocol ~txn member Mode.S with
        | Protocol.Acquired _ -> ()
        | Protocol.Blocked _ -> Alcotest.fail "S sharing cannot block")
      members;
    (match
       Colock.Escalation.maybe_escalate protocol ~txn ~threshold:8 ~parent:holu
     with
     | Colock.Escalation.Escalated _ -> ()
     | Colock.Escalation.Escalation_blocked _ | Colock.Escalation.Not_needed ->
       Alcotest.fail "escalation expected");
    let (_ : Table.grant list) = Protocol.end_of_transaction protocol ~txn in
    ()
  done;
  check_int "drained" 0 (Table.entry_count table);
  check_int "30 escalations" 30 (Table.stats table).Lockmgr.Lock_stats.escalations

let () =
  Alcotest.run "soak"
    [ ("scale",
       [ Alcotest.test_case "big graph builds" `Quick test_big_graph_builds;
         Alcotest.test_case "500 transactions" `Quick
           test_500_transactions_commit;
         Alcotest.test_case "all techniques complete" `Quick
           test_all_techniques_complete_identically_sized_load;
         Alcotest.test_case "deep nested scale" `Quick test_deep_nested_scale;
         Alcotest.test_case "escalation storm" `Quick test_escalation_storm ])
    ]
