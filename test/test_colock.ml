(* Tests for the core lock-graph machinery: object-specific lock graphs
   (Fig. 5), instance graphs, units (Fig. 6), query-specific lock graphs and
   escalation. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Units = Colock.Units

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let node steps = Option.get (Node_id.of_steps steps)
let fig1 () = Workload.Figure1.database ()
let graph_of db = Graph.build db
let at graph steps = Graph.node_exn graph (node steps)
let resources graph nodes = List.map (Graph.resource graph) nodes

(* ---------------------------------------------------------------- Node_id *)

let test_node_id_resource () =
  let id = node [ "db1"; "seg1"; "cells"; "c1" ] in
  check_string "resource" "db1/seg1/cells/c1" (Node_id.to_resource id);
  check_int "depth" 4 (Node_id.depth id)

let test_node_id_parent () =
  let id = node [ "db1"; "seg1"; "cells" ] in
  (match Node_id.parent id with
   | Some parent -> check_string "parent" "db1/seg1" (Node_id.to_resource parent)
   | None -> Alcotest.fail "parent expected");
  check_bool "db has no parent" true (Node_id.parent (Node_id.database "db1") = None)

let test_node_id_ancestry () =
  let ancestor = node [ "db1"; "seg1" ] in
  let descendant = node [ "db1"; "seg1"; "cells"; "c1" ] in
  check_bool "ancestor" true (Node_id.is_ancestor ~ancestor descendant);
  check_bool "self" true (Node_id.is_ancestor ~ancestor ancestor);
  check_bool "not descendant" false
    (Node_id.is_ancestor ~ancestor:descendant ancestor);
  check_bool "sibling" false
    (Node_id.is_ancestor ~ancestor:(node [ "db1"; "seg2" ]) descendant)

let test_node_id_escaping () =
  (* member names may contain '/', e.g. rendered oids. *)
  let a = Node_id.child (Node_id.database "db") "x/y" in
  let b = Node_id.child (Node_id.child (Node_id.database "db") "x") "y" in
  check_bool "no collision" false
    (String.equal (Node_id.to_resource a) (Node_id.to_resource b))

(* ----------------------------------------------------------- Object_graph *)

let cells_graph () =
  Colock.Object_graph.of_relation ~database:"db1" Workload.Figure1.cells_schema

let test_object_graph_figure5_structure () =
  let graph = cells_graph () in
  (* The Fig. 5 chain: HeLU db -> HeLU segment -> HoLU relation -> HeLU C.O. *)
  let root = graph.Colock.Object_graph.root in
  check_bool "db is HeLU" true
    (Colock.Lockable.equal root.Colock.Object_graph.kind Colock.Lockable.Helu);
  let segment = List.hd root.Colock.Object_graph.children in
  check_bool "segment is HeLU" true
    (Colock.Lockable.equal segment.Colock.Object_graph.kind
       Colock.Lockable.Helu);
  let relation = List.hd segment.Colock.Object_graph.children in
  check_bool "relation is HoLU" true
    (Colock.Lockable.equal relation.Colock.Object_graph.kind
       Colock.Lockable.Holu);
  let complex_object = Colock.Object_graph.complex_object_node graph in
  check_bool "C.O. is HeLU" true
    (Colock.Lockable.equal complex_object.Colock.Object_graph.kind
       Colock.Lockable.Helu);
  (* C.O. children: BLU cell_id, HoLU c_objects, HoLU robots *)
  match complex_object.Colock.Object_graph.children with
  | [ cell_id; c_objects; robots ] ->
    check_bool "cell_id BLU" true
      (Colock.Lockable.equal cell_id.Colock.Object_graph.kind
         Colock.Lockable.Blu);
    check_bool "c_objects HoLU" true
      (Colock.Lockable.equal c_objects.Colock.Object_graph.kind
         Colock.Lockable.Holu);
    check_bool "robots HoLU" true
      (Colock.Lockable.equal robots.Colock.Object_graph.kind
         Colock.Lockable.Holu);
    (* HoLU c_objects -> HeLU member -> BLUs obj_id, obj_name *)
    (match c_objects.Colock.Object_graph.children with
     | [ member ] ->
       check_bool "c_objects member HeLU" true
         (Colock.Lockable.equal member.Colock.Object_graph.kind
            Colock.Lockable.Helu);
       check_int "two BLUs" 2 (List.length member.Colock.Object_graph.children)
     | _ -> Alcotest.fail "c_objects should have one member node");
    (* HoLU robots -> HeLU member -> robot_id, trajectory, HoLU effectors *)
    (match robots.Colock.Object_graph.children with
     | [ member ] -> (
       match member.Colock.Object_graph.children with
       | [ _robot_id; _trajectory; effectors ] -> (
         check_bool "effectors HoLU" true
           (Colock.Lockable.equal effectors.Colock.Object_graph.kind
              Colock.Lockable.Holu);
         match effectors.Colock.Object_graph.children with
         | [ ref_blu ] ->
           check_bool "ref is BLU" true
             (Colock.Lockable.equal ref_blu.Colock.Object_graph.kind
                Colock.Lockable.Blu);
           check_string "dashed target" "effectors"
             (Option.value ~default:"?" ref_blu.Colock.Object_graph.ref_target)
         | _ -> Alcotest.fail "effectors HoLU should hold one ref BLU")
       | _ -> Alcotest.fail "robot member should have three children")
     | _ -> Alcotest.fail "robots should have one member node")
  | _ -> Alcotest.fail "C.O. cells should have three children"

let test_object_graph_counts () =
  let graph = cells_graph () in
  (* db, seg, rel, C.O., cell_id, c_objects, member, obj_id, obj_name,
     robots, member, robot_id, trajectory, effectors, ref = 15 nodes *)
  check_int "node count" 15 (Colock.Object_graph.node_count graph);
  (* cell_id, obj_id, obj_name, robot_id, trajectory, ref *)
  check_int "blu count" 6 (Colock.Object_graph.blu_count graph)

let test_object_graph_effectors () =
  let graph =
    Colock.Object_graph.of_relation ~database:"db1"
      Workload.Figure1.effectors_schema
  in
  (* db, seg, rel, C.O., eff_id, tool *)
  check_int "node count" 6 (Colock.Object_graph.node_count graph);
  check_int "no refs" 0 (List.length (Colock.Object_graph.reference_nodes graph))

let test_object_graph_reference_nodes () =
  let graph = cells_graph () in
  match Colock.Object_graph.reference_nodes graph with
  | [ (path, target) ] ->
    check_string "path" "robots.effectors" (Path.to_string path);
    check_string "target" "effectors" target
  | _ -> Alcotest.fail "one dashed edge expected"

let test_object_graph_levels () =
  let graph = cells_graph () in
  let levels =
    Colock.Object_graph.levels_to_path graph (Path.of_string "robots.robot_id")
  in
  (* C.O. cells -> HoLU robots -> HeLU member -> BLU robot_id *)
  check_int "four levels" 4 (List.length levels);
  match List.rev levels with
  | deepest :: _ ->
    check_bool "deepest is BLU" true
      (Colock.Lockable.equal deepest.Colock.Object_graph.kind
         Colock.Lockable.Blu)
  | [] -> Alcotest.fail "levels expected"

let test_object_graph_find_path () =
  let graph = cells_graph () in
  (match Colock.Object_graph.find_path graph (Path.of_string "c_objects") with
   | Some found ->
     check_bool "HoLU" true
       (Colock.Lockable.equal found.Colock.Object_graph.kind
          Colock.Lockable.Holu)
   | None -> Alcotest.fail "c_objects expected");
  check_bool "missing" true
    (Colock.Object_graph.find_path graph (Path.of_string "nope") = None)

let test_object_graph_derivation_rules () =
  check_bool "set -> HoLU" true
    (Colock.Lockable.equal
       (Colock.Lockable.derive (Nf2.Schema.Set (Nf2.Schema.Atomic Nf2.Schema.Int)))
       Colock.Lockable.Holu);
  check_bool "list -> HoLU" true
    (Colock.Lockable.equal
       (Colock.Lockable.derive (Nf2.Schema.List (Nf2.Schema.Atomic Nf2.Schema.Int)))
       Colock.Lockable.Holu);
  check_bool "tuple -> HeLU" true
    (Colock.Lockable.equal
       (Colock.Lockable.derive
          (Nf2.Schema.Tuple [ Nf2.Schema.field "x" (Nf2.Schema.Atomic Nf2.Schema.Int) ]))
       Colock.Lockable.Helu);
  check_bool "atomic -> BLU" true
    (Colock.Lockable.equal
       (Colock.Lockable.derive (Nf2.Schema.Atomic Nf2.Schema.Str))
       Colock.Lockable.Blu);
  check_bool "BLU contains nothing" false
    (Colock.Lockable.may_contain Colock.Lockable.Blu Colock.Lockable.Blu);
  check_bool "only BLU references" true
    (Colock.Lockable.may_reference Colock.Lockable.Blu
     && (not (Colock.Lockable.may_reference Colock.Lockable.Holu))
     && not (Colock.Lockable.may_reference Colock.Lockable.Helu))

(* ---------------------------------------------------------- Instance_graph *)

let test_instance_graph_navigation () =
  let graph = graph_of (fig1 ()) in
  check_string "root" "db1" (Graph.resource graph (Graph.root graph));
  (match Graph.segment_node graph "seg1" with
   | Some found -> check_string "seg1" "db1/seg1" (Graph.resource graph found)
   | None -> Alcotest.fail "seg1 expected");
  (match Graph.relation_node graph "cells" with
   | Some found -> check_string "cells" "db1/seg1/cells" (Graph.resource graph found)
   | None -> Alcotest.fail "cells expected");
  match Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1") with
  | Some found -> check_string "c1" "db1/seg1/cells/c1" (Graph.resource graph found)
  | None -> Alcotest.fail "c1 expected"

let test_instance_graph_members () =
  let graph = graph_of (fig1 ()) in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let robots = Option.get (Graph.member_node graph c1 "robots") in
  (match Graph.member_node graph robots "r1" with
   | Some found ->
     check_string "r1" "db1/seg1/cells/c1/robots/r1" (Graph.resource graph found)
   | None -> Alcotest.fail "r1 expected");
  check_bool "missing member" true (Graph.member_node graph robots "r9" = None)

let test_instance_graph_kinds () =
  let graph = graph_of (fig1 ()) in
  let kind_of steps = (at graph steps).Graph.kind in
  check_bool "db HeLU" true
    (Colock.Lockable.equal (kind_of [ "db1" ]) Colock.Lockable.Helu);
  check_bool "segment HeLU" true
    (Colock.Lockable.equal (kind_of [ "db1"; "seg1" ]) Colock.Lockable.Helu);
  check_bool "relation HoLU" true
    (Colock.Lockable.equal (kind_of [ "db1"; "seg1"; "cells" ]) Colock.Lockable.Holu);
  check_bool "object HeLU" true
    (Colock.Lockable.equal
       (kind_of [ "db1"; "seg1"; "cells"; "c1" ])
       Colock.Lockable.Helu);
  check_bool "robots HoLU" true
    (Colock.Lockable.equal
       (kind_of [ "db1"; "seg1"; "cells"; "c1"; "robots" ])
       Colock.Lockable.Holu);
  check_bool "robot HeLU" true
    (Colock.Lockable.equal
       (kind_of [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ])
       Colock.Lockable.Helu);
  check_bool "trajectory BLU" true
    (Colock.Lockable.equal
       (kind_of [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1"; "trajectory" ])
       Colock.Lockable.Blu)

let test_instance_graph_entry_points () =
  let graph = graph_of (fig1 ()) in
  let is_entry steps = (at graph steps).Graph.entry_point in
  check_bool "effector e1 is entry point" true
    (is_entry [ "db1"; "seg2"; "effectors"; "e1" ]);
  check_bool "cell c1 is not" false (is_entry [ "db1"; "seg1"; "cells"; "c1" ]);
  check_bool "relation effectors is not" false
    (is_entry [ "db1"; "seg2"; "effectors" ])

let test_instance_graph_referencers () =
  let graph = graph_of (fig1 ()) in
  let refs_to key = Graph.referencers graph (Oid.make ~relation:"effectors" ~key) in
  check_int "e1: one referencer (r1)" 1 (List.length (refs_to "e1"));
  check_int "e2: two referencers (r1, r2)" 2 (List.length (refs_to "e2"));
  check_int "e3: one referencer (r2)" 1 (List.length (refs_to "e3"));
  List.iter
    (fun holder ->
      check_bool "referencers live under robots" true
        (Node_id.is_ancestor
           ~ancestor:(node [ "db1"; "seg1"; "cells"; "c1"; "robots" ])
           (Graph.id graph holder)))
    (refs_to "e2")

let test_instance_graph_ancestors () =
  let graph = graph_of (fig1 ()) in
  let r1 = at graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  Alcotest.(check (list string))
    "root-first chain"
    [ "db1"; "db1/seg1"; "db1/seg1/cells"; "db1/seg1/cells/c1";
      "db1/seg1/cells/c1/robots" ]
    (resources graph (Graph.ancestor_nodes graph r1))

let test_instance_graph_subtree_refs () =
  let graph = graph_of (fig1 ()) in
  let refs_of steps =
    List.map Oid.to_string (Graph.subtree_refs graph (at graph steps))
  in
  Alcotest.(check (list string))
    "r1 refs" [ "effectors/e1"; "effectors/e2" ]
    (refs_of [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]);
  Alcotest.(check (list string))
    "c1 refs (dedup)" [ "effectors/e1"; "effectors/e2"; "effectors/e3" ]
    (refs_of [ "db1"; "seg1"; "cells"; "c1" ]);
  Alcotest.(check (list string))
    "c_objects: none" []
    (refs_of [ "db1"; "seg1"; "cells"; "c1"; "c_objects" ])

let test_instance_graph_counts () =
  let db = fig1 () in
  let graph = graph_of db in
  (* db(1) segs(2) relations(2) c1(1) cell_id(1) c_objects(1+3*3=10)
     robots(1+2*6=13) effector objects(3*3=9) = 39 *)
  check_int "node count" 39 (Graph.node_count graph);
  check_int "subtree of db is everything" 39
    (Graph.subtree_size graph (Graph.root graph))

(* Three robots whose ids collide with each other's collision names: each
   must get its own step, and an X on each must propagate to its own
   effector. *)
let test_instance_graph_sibling_names_unique () =
  let db = Nf2.Database.create "db1" in
  List.iter
    (fun schema -> ignore (Result.get_ok (Nf2.Database.create_relation db schema)))
    [ Workload.Figure1.effectors_schema; Workload.Figure1.cells_schema ];
  let insert relation value =
    ignore (Result.get_ok (Nf2.Database.insert db relation value))
  in
  List.iter
    (fun key -> insert "effectors" (Workload.Figure1.effector ~key ~tool:"t"))
    [ "e1"; "e2"; "e3" ];
  let robots =
    List.map
      (fun (key, effector) ->
        Workload.Figure1.robot ~key ~trajectory:"tr" ~effectors:[ effector ])
      [ ("a", "e1"); ("a", "e2"); ("a#1", "e3") ]
  in
  insert "cells" (Workload.Figure1.cell ~key:"c1" ~objects:[] ~robots);
  let graph = graph_of db in
  let holu = at graph [ "db1"; "seg1"; "cells"; "c1"; "robots" ] in
  let children = Graph.children graph holu in
  Alcotest.(check (list string)) "distinct steps"
    [ "db1/seg1/cells/c1/robots/a"; "db1/seg1/cells/c1/robots/a#1";
      "db1/seg1/cells/c1/robots/a#1#2" ]
    (resources graph children);
  let protocol = Colock.Protocol.create graph (Table.create ()) in
  List.iter2
    (fun robot effector ->
      let propagated =
        List.filter_map
          (fun (step : Colock.Protocol.step) ->
            if step.reason = Colock.Protocol.Downward_propagation then
              Some step.resource
            else None)
          (Colock.Protocol.plan_node protocol ~txn:1 robot Mode.X)
      in
      Alcotest.(check (list string)) "own effector"
        [ "db1/seg2/effectors/" ^ effector ] propagated)
    children [ "e1"; "e2"; "e3" ];
  check_int "node count" (Graph.subtree_size graph (Graph.root graph))
    (Graph.node_count graph)

(* The memory budget of the graph, on a 256-cell catalog of the disjoint
   benchmark's shape (20 objects and 4 robots per cell, 1,024 effectors, 2
   references per robot): 25,605 nodes in 427,891 reachable words when this
   budget was set, 16.71 words per node. *)
let words_per_node_budget = 16.72

let test_instance_graph_memory_budget () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.cells = 256; objects_per_cell = 20;
        robots_per_cell = 4; effectors = 1024; effectors_per_robot = 2;
        seed = 1 }
  in
  let graph = graph_of db in
  let nodes = Graph.node_count graph in
  check_int "every node reachable from the root is counted"
    (Graph.subtree_size graph (Graph.root graph))
    nodes;
  let words = Obj.reachable_words (Obj.repr graph) in
  let per_node = float_of_int words /. float_of_int nodes in
  if per_node > words_per_node_budget then
    Alcotest.failf "%d words for %d nodes: %.2f per node, budget %.2f" words
      nodes per_node words_per_node_budget

let test_instance_graph_nodes_at_path () =
  let graph = graph_of (fig1 ()) in
  let c1 = Oid.make ~relation:"cells" ~key:"c1" in
  let at path = Graph.nodes_at_path graph c1 (Path.of_string path) in
  check_int "root is the object" 1 (List.length (at ""));
  check_int "robots HoLU" 1 (List.length (at "robots"));
  check_int "robot_id fans over members" 2 (List.length (at "robots.robot_id"));
  check_int "c_objects member BLUs" 3 (List.length (at "c_objects.obj_name"));
  check_int "effectors HoLUs" 2 (List.length (at "robots.effectors"));
  check_int "missing" 0 (List.length (at "nope"))

(* ------------------------------------------------------------------ Units *)

let test_units_roots () =
  let graph = graph_of (fig1 ()) in
  let r1 = at graph [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  check_string "r1 is in the outer unit" "db1"
    (Graph.resource graph (Units.unit_root graph r1));
  check_bool "in_outer_unit" true (Units.in_outer_unit graph r1);
  let e1_tool = at graph [ "db1"; "seg2"; "effectors"; "e1"; "tool" ] in
  check_string "tool of e1 is in inner unit e1" "db1/seg2/effectors/e1"
    (Graph.resource graph (Units.unit_root graph e1_tool));
  check_bool "not outer" false (Units.in_outer_unit graph e1_tool)

let test_units_superunit_parents () =
  let graph = graph_of (fig1 ()) in
  let e1 = at graph [ "db1"; "seg2"; "effectors"; "e1" ] in
  (* Fig. 6: the superunit of effector e1 is db1 / seg2 / Relation effectors
     / effector e1 *)
  Alcotest.(check (list string))
    "parents of entry point e1" [ "db1"; "db1/seg2"; "db1/seg2/effectors" ]
    (resources graph (Units.superunit_parents graph ~root:e1))

let test_units_members_inner () =
  let graph = graph_of (fig1 ()) in
  let e1 = at graph [ "db1"; "seg2"; "effectors"; "e1" ] in
  Alcotest.(check (list string))
    "inner unit effector e1"
    [ "db1/seg2/effectors/e1"; "db1/seg2/effectors/e1/eff_id";
      "db1/seg2/effectors/e1/tool" ]
    (resources graph (Units.unit_members graph ~root:e1))

let test_units_members_outer_stop_at_entries () =
  let graph = graph_of (fig1 ()) in
  let members = Units.unit_members graph ~root:(Graph.root graph) in
  let resources = resources graph members in
  check_bool "contains relation effectors" true
    (List.mem "db1/seg2/effectors" resources);
  check_bool "does not descend into effector e1" false
    (List.mem "db1/seg2/effectors/e1" resources);
  check_bool "contains the ref BLU holder" true
    (List.mem "db1/seg1/cells/c1/robots/r1/effectors" resources)

let test_units_entry_points_below () =
  let graph = graph_of (fig1 ()) in
  let below steps =
    resources graph (Units.entry_points_below graph (at graph steps))
  in
  Alcotest.(check (list string))
    "below r1" [ "db1/seg2/effectors/e1"; "db1/seg2/effectors/e2" ]
    (below [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]);
  Alcotest.(check (list string))
    "below c1 (all three)"
    [ "db1/seg2/effectors/e1"; "db1/seg2/effectors/e2";
      "db1/seg2/effectors/e3" ]
    (below [ "db1"; "seg1"; "cells"; "c1" ]);
  Alcotest.(check (list string))
    "below an effector: none" []
    (below [ "db1"; "seg2"; "effectors"; "e1" ])

let test_units_disjoint_have_no_inner () =
  (* A database without references has a single (outer) unit. *)
  let db =
    Workload.Generator.deep
      { Workload.Generator.default_deep with share = false; parts = 0 }
  in
  let graph = graph_of db in
  let members = Units.unit_members graph ~root:(Graph.root graph) in
  check_int "outer unit covers everything" (Graph.node_count graph)
    (List.length members)

(* ------------------------------------------------------------ Query_graph *)

let stats_for db relation =
  match Nf2.Database.relation db relation with
  | Some store -> Nf2.Statistics.compute store
  | None -> Nf2.Statistics.empty relation

let test_query_graph_fine_when_cheap () =
  let db = fig1 () in
  let catalog = Nf2.Database.catalog db in
  let access =
    Colock.Access.make
      ~predicate:(Path.of_string "cell_id")
      ~target:(Path.of_string "robots.robot_id")
      Colock.Access.Update "cells"
  in
  let choice =
    Colock.Query_graph.plan_access ~threshold:10 catalog
      ~stats:(stats_for db) access
  in
  (match choice.Colock.Query_graph.granule with
   | Colock.Query_graph.Subtree path ->
     check_string "locks at target level" "robots.robot_id"
       (Path.to_string path)
   | Colock.Query_graph.Whole_object | Colock.Query_graph.Whole_relation ->
     Alcotest.fail "expected fine granule");
  check_bool "X mode" true (Mode.equal choice.Colock.Query_graph.mode Mode.X);
  check_bool "no anticipated escalation" false
    choice.Colock.Query_graph.anticipated_escalation

let test_query_graph_escalates_when_populous () =
  let db = Workload.Figure1.database ~c_objects:100 () in
  let catalog = Nf2.Database.catalog db in
  let access =
    Colock.Access.make
      ~predicate:(Path.of_string "cell_id")
      ~target:(Path.of_string "c_objects.obj_name")
      Colock.Access.Read "cells"
  in
  let choice =
    Colock.Query_graph.plan_access ~threshold:10 catalog
      ~stats:(stats_for db) access
  in
  (* 100 members exceed the threshold: anticipate by locking the c_objects
     HoLU (1 lock per object) instead of 100 BLUs. *)
  (match choice.Colock.Query_graph.granule with
   | Colock.Query_graph.Subtree path ->
     check_string "escalated to collection" "c_objects" (Path.to_string path)
   | Colock.Query_graph.Whole_object | Colock.Query_graph.Whole_relation ->
     Alcotest.fail "expected c_objects subtree");
  check_bool "escalation anticipated" true
    choice.Colock.Query_graph.anticipated_escalation;
  check_bool "finest estimate reflects members" true
    (choice.Colock.Query_graph.finest_estimate >= 100.0)

let test_query_graph_whole_relation_for_scan () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 50 }
  in
  let catalog = Nf2.Database.catalog db in
  let access = Colock.Access.make Colock.Access.Read "cells" in
  let choice =
    Colock.Query_graph.plan_access ~threshold:10 catalog
      ~stats:(stats_for db) access
  in
  match choice.Colock.Query_graph.granule with
  | Colock.Query_graph.Whole_relation -> ()
  | Colock.Query_graph.Whole_object | Colock.Query_graph.Subtree _ ->
    Alcotest.fail "a 50-object scan should lock the relation"

let test_query_graph_object_level () =
  let db = fig1 () in
  let catalog = Nf2.Database.catalog db in
  let access =
    Colock.Access.make ~predicate:(Path.of_string "cell_id")
      Colock.Access.Update "cells"
  in
  let choice =
    Colock.Query_graph.plan_access ~threshold:10 catalog
      ~stats:(stats_for db) access
  in
  match choice.Colock.Query_graph.granule with
  | Colock.Query_graph.Whole_object -> ()
  | Colock.Query_graph.Whole_relation | Colock.Query_graph.Subtree _ ->
    Alcotest.fail "whole-object expected for a keyed whole-object access"

let test_query_graph_estimate_at () =
  let db = Workload.Figure1.database ~c_objects:7 () in
  let stats = stats_for db "cells" in
  let schema = Workload.Figure1.cells_schema in
  Alcotest.(check (float 0.001))
    "c_objects HoLU level: 1 per object" 1.0
    (Colock.Query_graph.estimate_at stats ~objects:1.0 schema
       (Path.of_string "c_objects"));
  Alcotest.(check (float 0.001))
    "obj_name level: 7 per object" 7.0
    (Colock.Query_graph.estimate_at stats ~objects:1.0 schema
       (Path.of_string "c_objects.obj_name"));
  (* locking at the per-robot effectors HoLU: one lock per robot *)
  Alcotest.(check (float 0.001))
    "effectors HoLU level: 2 per object" 2.0
    (Colock.Query_graph.estimate_at stats ~objects:1.0 schema
       (Path.of_string "robots.effectors"))

let test_query_graph_build () =
  let db = fig1 () in
  let catalog = Nf2.Database.catalog db in
  let accesses =
    [ Colock.Access.make ~predicate:(Path.of_string "cell_id")
        ~target:(Path.of_string "c_objects")
        Colock.Access.Read "cells";
      Colock.Access.make ~predicate:(Path.of_string "eff_id")
        Colock.Access.Update "effectors" ]
  in
  let query_graph =
    Colock.Query_graph.build ~threshold:10 catalog ~stats:(stats_for db)
      accesses
  in
  check_int "two choices" 2
    (List.length query_graph.Colock.Query_graph.choices)

(* ------------------------------------------------------------- Escalation *)

let protocol_for db =
  let graph = graph_of db in
  let table = Table.create () in
  (graph, table, Colock.Protocol.create graph table)

let acquire_exn protocol ~txn node mode =
  match Colock.Protocol.acquire protocol ~txn node mode with
  | Colock.Protocol.Acquired _ -> ()
  | Colock.Protocol.Blocked _ -> Alcotest.fail "unexpected block"

let test_escalation_triggers () =
  let db = Workload.Figure1.database ~c_objects:6 () in
  let graph, table, protocol = protocol_for db in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  check_int "six members" 6 (List.length members);
  List.iter (fun member -> acquire_exn protocol ~txn:1 member Mode.S) members;
  (match
     Colock.Escalation.maybe_escalate protocol ~txn:1 ~threshold:4 ~parent:holu
   with
   | Colock.Escalation.Escalated { mode; released_children; _ } ->
     check_bool "escalated to S" true (Mode.equal mode Mode.S);
     check_int "released six" 6 released_children
   | Colock.Escalation.Escalation_blocked _ | Colock.Escalation.Not_needed ->
     Alcotest.fail "escalation expected");
  check_bool "holu now S" true
    (Mode.equal (Table.held table ~txn:1 ~resource:(Graph.resource graph holu)) Mode.S);
  List.iter
    (fun member ->
      check_bool "member released" true
        (Mode.equal
           (Table.held table ~txn:1 ~resource:(Graph.resource graph member))
           Mode.NL))
    members;
  check_int "stats counted" 1
    (Table.stats table).Lockmgr.Lock_stats.escalations

let test_escalation_not_needed () =
  let db = Workload.Figure1.database ~c_objects:6 () in
  let graph, _table, protocol = protocol_for db in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  (match members with
   | first :: _ -> acquire_exn protocol ~txn:1 first Mode.S
   | [] -> Alcotest.fail "members expected");
  match
    Colock.Escalation.maybe_escalate protocol ~txn:1 ~threshold:4 ~parent:holu
  with
  | Colock.Escalation.Not_needed -> ()
  | Colock.Escalation.Escalated _ | Colock.Escalation.Escalation_blocked _ ->
    Alcotest.fail "below threshold: no escalation"

let test_escalation_blocked_by_other_txn () =
  let db = Workload.Figure1.database ~c_objects:6 () in
  let graph, _table, protocol = protocol_for db in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  (* T2 reads the last member first: its IS on the HoLU blocks T1's X
     escalation while leaving the other members free for T1. *)
  (match List.rev members with
   | last :: _ -> acquire_exn protocol ~txn:2 last Mode.S
   | [] -> Alcotest.fail "members expected");
  (match members with
   | m1 :: m2 :: m3 :: _ ->
     List.iter (fun member -> acquire_exn protocol ~txn:1 member Mode.X)
       [ m1; m2; m3 ]
   | _ -> Alcotest.fail "members expected");
  match
    Colock.Escalation.maybe_escalate protocol ~txn:1 ~threshold:2 ~parent:holu
  with
  | Colock.Escalation.Escalation_blocked { blockers } ->
    Alcotest.(check (list int)) "blocked by T2" [ 2 ] blockers
  | Colock.Escalation.Escalated _ | Colock.Escalation.Not_needed ->
    Alcotest.fail "escalation should block"

let test_deescalation () =
  let db = Workload.Figure1.database ~c_objects:6 () in
  let graph, table, protocol = protocol_for db in
  let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  acquire_exn protocol ~txn:1 holu Mode.X;
  let keep =
    match members with
    | first :: _ -> [ (first, Mode.X) ]
    | [] -> Alcotest.fail "members expected"
  in
  (match Colock.Escalation.deescalate protocol ~txn:1 holu ~keep with
   | Ok _grants -> ()
   | Error _ -> Alcotest.fail "de-escalation should succeed");
  check_bool "holu weakened to IX" true
    (Mode.equal (Table.held table ~txn:1 ~resource:(Graph.resource graph holu)) Mode.IX);
  (* another transaction can now lock a different member *)
  match members with
  | _first :: second :: _ -> (
    match Colock.Protocol.acquire protocol ~wait:false ~txn:2 second Mode.S with
    | Colock.Protocol.Acquired _ -> ()
    | Colock.Protocol.Blocked _ -> Alcotest.fail "sibling should be free")
  | _ -> Alcotest.fail "two members expected"

let () =
  Alcotest.run "colock"
    [ ("node_id",
       [ Alcotest.test_case "resource" `Quick test_node_id_resource;
         Alcotest.test_case "parent" `Quick test_node_id_parent;
         Alcotest.test_case "ancestry" `Quick test_node_id_ancestry;
         Alcotest.test_case "escaping" `Quick test_node_id_escaping ]);
      ("object_graph",
       [ Alcotest.test_case "figure 5 structure" `Quick
           test_object_graph_figure5_structure;
         Alcotest.test_case "counts" `Quick test_object_graph_counts;
         Alcotest.test_case "effectors" `Quick test_object_graph_effectors;
         Alcotest.test_case "reference nodes" `Quick
           test_object_graph_reference_nodes;
         Alcotest.test_case "levels" `Quick test_object_graph_levels;
         Alcotest.test_case "find_path" `Quick test_object_graph_find_path;
         Alcotest.test_case "derivation rules" `Quick
           test_object_graph_derivation_rules ]);
      ("instance_graph",
       [ Alcotest.test_case "navigation" `Quick test_instance_graph_navigation;
         Alcotest.test_case "members" `Quick test_instance_graph_members;
         Alcotest.test_case "kinds" `Quick test_instance_graph_kinds;
         Alcotest.test_case "entry points" `Quick
           test_instance_graph_entry_points;
         Alcotest.test_case "referencers" `Quick
           test_instance_graph_referencers;
         Alcotest.test_case "ancestors" `Quick test_instance_graph_ancestors;
         Alcotest.test_case "subtree refs" `Quick
           test_instance_graph_subtree_refs;
         Alcotest.test_case "counts" `Quick test_instance_graph_counts;
         Alcotest.test_case "sibling names unique" `Quick
           test_instance_graph_sibling_names_unique;
         Alcotest.test_case "memory budget" `Quick
           test_instance_graph_memory_budget;
         Alcotest.test_case "nodes_at_path" `Quick
           test_instance_graph_nodes_at_path ]);
      ("units",
       [ Alcotest.test_case "unit roots" `Quick test_units_roots;
         Alcotest.test_case "superunit parents" `Quick
           test_units_superunit_parents;
         Alcotest.test_case "inner unit members" `Quick
           test_units_members_inner;
         Alcotest.test_case "outer unit stops at entries" `Quick
           test_units_members_outer_stop_at_entries;
         Alcotest.test_case "entry points below" `Quick
           test_units_entry_points_below;
         Alcotest.test_case "disjoint: no inner units" `Quick
           test_units_disjoint_have_no_inner ]);
      ("query_graph",
       [ Alcotest.test_case "fine when cheap" `Quick
           test_query_graph_fine_when_cheap;
         Alcotest.test_case "escalates when populous" `Quick
           test_query_graph_escalates_when_populous;
         Alcotest.test_case "whole relation for scan" `Quick
           test_query_graph_whole_relation_for_scan;
         Alcotest.test_case "object level" `Quick test_query_graph_object_level;
         Alcotest.test_case "estimate_at" `Quick test_query_graph_estimate_at;
         Alcotest.test_case "build" `Quick test_query_graph_build ]);
      ("escalation",
       [ Alcotest.test_case "triggers" `Quick test_escalation_triggers;
         Alcotest.test_case "not needed" `Quick test_escalation_not_needed;
         Alcotest.test_case "blocked" `Quick
           test_escalation_blocked_by_other_txn;
         Alcotest.test_case "de-escalation" `Quick test_deescalation ]) ]
