(* Tests for the baseline techniques of §3 and their failure modes. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 ?c_objects () = Workload.Figure1.database ?c_objects ()
let c1 = Oid.make ~relation:"cells" ~key:"c1"
let e2 = Oid.make ~relation:"effectors" ~key:"e2"

let resource_of request =
  Node_id.to_resource request.Baselines.Technique.node

(* ------------------------------------------------------------ Whole_object *)

let test_whole_object_plan () =
  let graph = Graph.build (fig1 ()) in
  let plan = Baselines.Whole_object.plan graph ~oid:c1 Mode.X in
  let resources = List.map resource_of plan in
  (* c1 as a whole plus the three referenced effectors, with chains *)
  check_bool "locks c1" true (List.mem "db1/seg1/cells/c1" resources);
  check_bool "locks e1" true (List.mem "db1/seg2/effectors/e1" resources);
  check_bool "locks e2" true (List.mem "db1/seg2/effectors/e2" resources);
  check_bool "locks e3" true (List.mem "db1/seg2/effectors/e3" resources);
  (* db, seg1, cells, c1, seg2, effectors, e1, e2, e3 = 9 *)
  check_int "nine requests" 9 (List.length plan);
  let x_modes =
    List.filter
      (fun request -> Mode.equal request.Baselines.Technique.mode Mode.X)
      plan
  in
  check_int "four X locks (c1 + 3 effectors)" 4 (List.length x_modes)

let test_whole_object_serializes_q1_q2 () =
  (* The §3.2.1 problem: Q1 (read parts of c1) and Q2 (update another part)
     conflict under whole-object locking. *)
  let graph = Graph.build (fig1 ()) in
  let table = Table.create () in
  (match
     Baselines.Technique.acquire table ~txn:1
       (Baselines.Whole_object.plan graph ~oid:c1 Mode.S)
   with
   | Baselines.Technique.Acquired _ -> ()
   | Baselines.Technique.Blocked _ -> Alcotest.fail "Q1 should acquire");
  match
    Baselines.Technique.acquire table ~txn:2 ~wait:false
      (Baselines.Whole_object.plan graph ~oid:c1 Mode.X)
  with
  | Baselines.Technique.Blocked _ -> ()
  | Baselines.Technique.Acquired _ ->
    Alcotest.fail "whole-object locking must serialize Q1/Q2"

let test_whole_object_count_grows_with_sharing () =
  let few = Graph.build (Workload.Generator.shared_effector ~robots:2) in
  let many = Graph.build (Workload.Generator.shared_effector ~robots:2) in
  let cell = Oid.make ~relation:"cells" ~key:"c1" in
  check_int "same db, same count"
    (Baselines.Whole_object.lock_count few ~oid:cell Mode.X)
    (Baselines.Whole_object.lock_count many ~oid:cell Mode.X)

(* ------------------------------------------------------------- Tuple_level *)

let test_tuple_level_leaf_tuples () =
  let graph = Graph.build (fig1 ~c_objects:3 ()) in
  let c1_node = Option.get (Graph.object_node graph c1) in
  let leaves = Baselines.Tuple_level.leaf_tuples graph c1_node in
  (* 3 c_objects members + 2 robot members + the uncovered cell_id BLU *)
  check_int "six leaf units" 6 (List.length leaves)

let test_tuple_level_plan_explodes () =
  let small = Graph.build (fig1 ~c_objects:3 ()) in
  let large = Graph.build (fig1 ~c_objects:100 ()) in
  let count graph =
    Baselines.Tuple_level.lock_count graph ~oid:c1 Mode.S
  in
  let small_count = count small in
  let large_count = count large in
  check_bool "lock count grows with members" true
    (large_count > small_count + 90);
  (* the proposed technique locks the object in 4-7 requests regardless *)
  check_bool "hundreds of requests" true (large_count >= 100)

let test_tuple_level_target () =
  let graph = Graph.build (fig1 ~c_objects:3 ()) in
  let plan =
    Baselines.Tuple_level.plan graph ~oid:c1 ~target:(Path.of_string "c_objects")
      Mode.S
  in
  let data_locks =
    List.filter
      (fun request -> Mode.equal request.Baselines.Technique.mode Mode.S)
      plan
  in
  check_int "three member tuples" 3 (List.length data_locks)

let test_tuple_level_follows_refs () =
  let graph = Graph.build (fig1 ()) in
  let plan =
    Baselines.Tuple_level.plan graph ~oid:c1 ~target:(Path.of_string "robots")
      Mode.X
  in
  let resources = List.map resource_of plan in
  check_bool "locks the shared effectors too" true
    (List.mem "db1/seg2/effectors/e2" resources)

let test_tuple_level_concurrent_on_disjoint_parts () =
  (* Fine granules do allow Q1 || Q2 — that is their selling point. *)
  let graph = Graph.build (fig1 ()) in
  let table = Table.create () in
  (match
     Baselines.Technique.acquire table ~txn:1
       (Baselines.Tuple_level.plan graph ~oid:c1
          ~target:(Path.of_string "c_objects") Mode.S)
   with
   | Baselines.Technique.Acquired _ -> ()
   | Baselines.Technique.Blocked _ -> Alcotest.fail "Q1 should acquire");
  match
    Baselines.Technique.acquire table ~txn:2 ~wait:false
      (Baselines.Tuple_level.plan graph ~oid:c1 ~target:(Path.of_string "robots")
         Mode.X)
  with
  | Baselines.Technique.Acquired _ -> ()
  | Baselines.Technique.Blocked _ ->
    Alcotest.fail "tuple-level locking should allow Q1 || Q2"

(* ---------------------------------------------------------------- Sysr_dag *)

let test_sysr_all_parents_cost_grows_with_sharing () =
  let plan_size robots =
    let graph = Graph.build (Workload.Generator.shared_effector ~robots) in
    let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
    List.length (Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:e1)
  in
  let at_2 = plan_size 2 in
  let at_32 = plan_size 32 in
  check_bool "plan grows with sharing degree" true (at_32 > at_2 + 25);
  (* the proposed technique always needs 4 requests for this access *)
  check_bool "worse than proposed" true (at_32 > 4)

let test_sysr_all_parents_locks_referencers () =
  let graph = Graph.build (fig1 ()) in
  let plan = Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:e2 in
  let resources = List.map resource_of plan in
  (* e2 is shared by r1 and r2: both chains must be IX locked *)
  check_bool "locks r1's ref chain" true
    (List.exists
       (fun resource ->
         String.length resource >= 34
         && String.equal (String.sub resource 0 34) "db1/seg1/cells/c1/robots/r1/effect")
       resources);
  check_bool "locks robots chain" true
    (List.mem "db1/seg1/cells/c1/robots" resources);
  check_bool "X on e2 itself" true
    (List.exists
       (fun request ->
         Mode.equal request.Baselines.Technique.mode Mode.X
         && String.equal (resource_of request) "db1/seg2/effectors/e2")
       plan)

let test_sysr_parent_enumeration_visits () =
  let small = Graph.build (fig1 ~c_objects:2 ()) in
  let large = Graph.build (fig1 ~c_objects:50 ()) in
  check_bool "scan cost grows with the database" true
    (Baselines.Sysr_dag.parent_enumeration_visits large
     > Baselines.Sysr_dag.parent_enumeration_visits small)

let test_sysr_naive_hidden_conflict () =
  (* The §3.2.2 anomaly: T1 X-locks robot r1 hierarchically (believing the
     referenced e2 is implicitly covered); T2 X-locks robot r2 the same way.
     The lock table sees no conflict, but both now "own" e2. *)
  let graph = Graph.build (fig1 ()) in
  let table = Table.create () in
  let r1 = Graph.node_exn graph (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ])) in
  let r2 = Graph.node_exn graph (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ])) in
  (match
     Baselines.Technique.acquire table ~txn:1
       (Baselines.Sysr_dag.plan_hierarchical_naive graph r1 Mode.X)
   with
   | Baselines.Technique.Acquired _ -> ()
   | Baselines.Technique.Blocked _ -> Alcotest.fail "T1 should acquire");
  (match
     Baselines.Technique.acquire table ~txn:2
       (Baselines.Sysr_dag.plan_hierarchical_naive graph r2 Mode.X)
   with
   | Baselines.Technique.Acquired _ -> ()
   | Baselines.Technique.Blocked _ ->
     Alcotest.fail "T2 acquires too: the conflict is invisible");
  let conflicts = Baselines.Sysr_dag.hidden_conflicts graph table ~txns:[ 1; 2 ] in
  check_bool "hidden conflict detected by the audit" true (conflicts <> []);
  check_bool "conflict is on e2" true
    (List.exists
       (fun { Baselines.Sysr_dag.at; _ } ->
         String.equal (Node_id.to_resource at) "db1/seg2/effectors/e2"
         || Node_id.is_ancestor
              ~ancestor:(Option.get (Node_id.of_steps [ "db1"; "seg2"; "effectors"; "e2" ]))
              at)
       conflicts)

let test_proposed_has_no_hidden_conflicts () =
  (* Same scenario through the paper's protocol: no hidden conflicts, under
     either rule. *)
  let db = fig1 () in
  let graph = Graph.build db in
  let run rule restrict =
    let table = Table.create () in
    let rights = Authz.Rights.create () in
    let protocol = Colock.Protocol.create ~rule ~rights graph table in
    if restrict then begin
      Authz.Rights.revoke_modify rights ~txn:1 ~relation:"effectors";
      Authz.Rights.revoke_modify rights ~txn:2 ~relation:"effectors"
    end;
    let r1 = Graph.node_exn graph (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ])) in
    let r2 = Graph.node_exn graph (Option.get (Node_id.of_steps [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ])) in
    let acquire txn node =
      match Colock.Protocol.acquire protocol ~wait:false ~txn node Mode.X with
      | Colock.Protocol.Acquired _ -> true
      | Colock.Protocol.Blocked _ ->
        (* detected conflict: the transaction aborts (or waits) and never
           reaches its data — only completed lock phases are audited *)
        let (_ : Table.grant list) = Table.release_all table ~txn in
        false
    in
    let first = acquire 1 r1 in
    let second = acquire 2 r2 in
    let conflicts =
      Baselines.Sysr_dag.hidden_conflicts ~rights graph table ~txns:[ 1; 2 ]
    in
    (first, second, conflicts)
  in
  (* Rule 4: T2 blocks on e2 (no hidden conflict, detected conflict). *)
  let first, second, conflicts = run Colock.Protocol.Rule_4 false in
  check_bool "rule 4: T1 acquired" true first;
  check_bool "rule 4: T2 blocked" false second;
  check_int "rule 4: no hidden conflicts" 0 (List.length conflicts);
  (* Rule 4': both run, still nothing hidden (both only read the library). *)
  let first, second, conflicts = run Colock.Protocol.Rule_4_prime true in
  check_bool "rule 4': T1 acquired" true first;
  check_bool "rule 4': T2 acquired" true second;
  check_int "rule 4': no hidden conflicts" 0 (List.length conflicts)

let test_proposed_beats_all_parents_on_cost () =
  (* E5 shape: X one effector shared by k robots. Proposed: constant 4
     requests. All-parents DAG: grows linearly. *)
  let graph = Graph.build (Workload.Generator.shared_effector ~robots:16) in
  let table = Table.create () in
  let protocol = Colock.Protocol.create graph table in
  let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
  let entry = Option.get (Graph.object_node graph e1) in
  let steps = Colock.Protocol.plan_node protocol ~txn:1 entry Mode.X in
  check_int "proposed: 4 requests" 4 (List.length steps);
  let naive = Baselines.Sysr_dag.plan_exclusive_all_parents graph ~oid:e1 in
  check_bool "naive needs an order of magnitude more" true
    (List.length naive > 20)

let () =
  Alcotest.run "baselines"
    [ ("whole_object",
       [ Alcotest.test_case "plan closure" `Quick test_whole_object_plan;
         Alcotest.test_case "serializes Q1/Q2" `Quick
           test_whole_object_serializes_q1_q2;
         Alcotest.test_case "deterministic count" `Quick
           test_whole_object_count_grows_with_sharing ]);
      ("tuple_level",
       [ Alcotest.test_case "leaf tuples" `Quick test_tuple_level_leaf_tuples;
         Alcotest.test_case "plan explodes" `Quick
           test_tuple_level_plan_explodes;
         Alcotest.test_case "target scoping" `Quick test_tuple_level_target;
         Alcotest.test_case "follows refs" `Quick test_tuple_level_follows_refs;
         Alcotest.test_case "concurrent on disjoint parts" `Quick
           test_tuple_level_concurrent_on_disjoint_parts ]);
      ("sysr_dag",
       [ Alcotest.test_case "all-parents cost grows" `Quick
           test_sysr_all_parents_cost_grows_with_sharing;
         Alcotest.test_case "all-parents locks referencers" `Quick
           test_sysr_all_parents_locks_referencers;
         Alcotest.test_case "parent enumeration visits" `Quick
           test_sysr_parent_enumeration_visits;
         Alcotest.test_case "naive hidden conflict" `Quick
           test_sysr_naive_hidden_conflict;
         Alcotest.test_case "proposed has none" `Quick
           test_proposed_has_no_hidden_conflicts;
         Alcotest.test_case "proposed beats all-parents cost" `Quick
           test_proposed_beats_all_parents_on_cost ]) ]
