(* Tests for insert/delete through the protocol, incremental instance-graph
   maintenance, and relation-granularity phantom protection. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Value = Nf2.Value
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  db : Nf2.Database.t;
  graph : Graph.t;
  table : Table.t;
  executor : Query.Executor.t;
  protocol : Colock.Protocol.t;
}

let make_env () =
  let db = Workload.Figure1.database () in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Colock.Protocol.create graph table in
  { db; graph; table; executor = Query.Executor.create db protocol; protocol }

let new_cell key =
  Workload.Figure1.cell ~key
    ~objects:[ Workload.Figure1.cell_object ~id:1 ~name:"new" ]
    ~robots:
      [ Workload.Figure1.robot ~key:"r1" ~trajectory:"t" ~effectors:[ "e1" ] ]

(* ------------------------------------------------------------- Graph level *)

let test_graph_insert_object () =
  let env = make_env () in
  let before = Graph.node_count env.graph in
  let catalog = Nf2.Database.catalog env.db in
  (match
     Graph.insert_object env.graph catalog Workload.Figure1.cells_schema
       ~key:"c2" (new_cell "c2")
   with
   | Ok node ->
     Alcotest.(check string) "node id" "db1/seg1/cells/c2"
       (Graph.resource env.graph node)
   | Error message -> Alcotest.failf "insert failed: %s" message);
  check_bool "node count grew" true (Graph.node_count env.graph > before);
  (* the new object is navigable and its referencers registered *)
  (match Graph.object_node env.graph (Oid.make ~relation:"cells" ~key:"c2") with
   | Some _ -> ()
   | None -> Alcotest.fail "object index not updated");
  check_int "e1 now referenced twice" 2
    (List.length
       (Graph.referencers env.graph (Oid.make ~relation:"effectors" ~key:"e1")));
  (* relation node children sorted and complete *)
  let relation = Option.get (Graph.relation_node env.graph "cells") in
  check_int "two cells" 2 (List.length (Graph.children env.graph relation))

let test_graph_insert_duplicate () =
  let env = make_env () in
  let catalog = Nf2.Database.catalog env.db in
  match
    Graph.insert_object env.graph catalog Workload.Figure1.cells_schema
      ~key:"c1" (new_cell "c1")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate must be refused"

let test_graph_delete_object () =
  let env = make_env () in
  let before = Graph.node_count env.graph in
  let c1 = Oid.make ~relation:"cells" ~key:"c1" in
  (match Graph.delete_object env.graph c1 with
   | Ok () -> ()
   | Error message -> Alcotest.failf "delete failed: %s" message);
  check_bool "nodes removed" true (Graph.node_count env.graph < before);
  check_bool "object gone" true (Graph.object_node env.graph c1 = None);
  (* its references were unhooked *)
  check_int "e1 unreferenced" 0
    (List.length
       (Graph.referencers env.graph (Oid.make ~relation:"effectors" ~key:"e1")))

let test_graph_delete_referenced_refused () =
  let env = make_env () in
  let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
  match Graph.delete_object env.graph e1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deleting referenced common data must be refused"

let test_graph_delete_after_unreference () =
  let env = make_env () in
  let c1 = Oid.make ~relation:"cells" ~key:"c1" in
  let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
  (match Graph.delete_object env.graph c1 with
   | Ok () -> ()
   | Error message -> Alcotest.failf "cell delete failed: %s" message);
  match Graph.delete_object env.graph e1 with
  | Ok () -> ()
  | Error message -> Alcotest.failf "now deletable: %s" message

(* ---------------------------------------------------------- Executor level *)

let test_executor_insert () =
  let env = make_env () in
  (match Query.Executor.insert_object env.executor ~txn:1 "cells" (new_cell "c2") with
   | Ok oid -> Alcotest.(check string) "oid" "cells/c2" (Oid.to_string oid)
   | Error error ->
     Alcotest.failf "insert failed: %s"
       (Format.asprintf "%a" Query.Executor.pp_error error));
  (* X held on the new object, IX on the relation *)
  check_bool "X on c2" true
    (Mode.equal
       (Table.held env.table ~txn:1 ~resource:"db1/seg1/cells/c2")
       Mode.X);
  check_bool "IX on cells" true
    (Mode.equal (Table.held env.table ~txn:1 ~resource:"db1/seg1/cells") Mode.IX);
  (* it is really in the database *)
  check_bool "db has c2" true
    (Option.is_some
       (Nf2.Database.deref env.db (Oid.make ~relation:"cells" ~key:"c2")));
  (* and queryable after commit *)
  let (_ : Table.grant list) =
    Colock.Protocol.end_of_transaction env.protocol ~txn:1
  in
  match
    Query.Executor.run_string env.executor ~txn:2
      "SELECT c FROM c IN cells WHERE c.cell_id = 'c2' FOR READ"
  with
  | Ok result -> check_int "one row" 1 (List.length result.Query.Executor.rows)
  | Error _ -> Alcotest.fail "query after insert failed"

let test_executor_insert_duplicate_key () =
  let env = make_env () in
  match Query.Executor.insert_object env.executor ~txn:1 "cells" (new_cell "c1") with
  | Error (Query.Executor.Database_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "duplicate key must surface"

let test_executor_delete () =
  let env = make_env () in
  let c1 = Oid.make ~relation:"cells" ~key:"c1" in
  (match Query.Executor.delete_object env.executor ~txn:1 c1 with
   | Ok () -> ()
   | Error error ->
     Alcotest.failf "delete failed: %s"
       (Format.asprintf "%a" Query.Executor.pp_error error));
  check_bool "gone from db" true (Nf2.Database.deref env.db c1 = None);
  check_bool "gone from graph" true (Graph.object_node env.graph c1 = None)

let test_executor_delete_referenced () =
  let env = make_env () in
  let e1 = Oid.make ~relation:"effectors" ~key:"e1" in
  match Query.Executor.delete_object env.executor ~txn:1 e1 with
  | Error (Query.Executor.Graph_error _) -> ()
  | Error _ | Ok () -> Alcotest.fail "must refuse deleting referenced data"

(* An absent key is reported as such; only a relation with no node is an
   unknown relation. *)
let test_executor_delete_absent () =
  let env = make_env () in
  let refused oid expected =
    match Query.Executor.delete_object env.executor ~txn:1 oid with
    | Error (Query.Executor.Database_error db_error) when db_error = expected
      ->
      ()
    | Error error ->
      Alcotest.failf "unexpected error: %a" Query.Executor.pp_error error
    | Ok () -> Alcotest.fail "delete of an absent object accepted"
  in
  refused
    (Oid.make ~relation:"cells" ~key:"c9")
    (Nf2.Database.Relation_error (Nf2.Relation.Unknown_key "c9"));
  refused
    (Oid.make ~relation:"nowhere" ~key:"c1")
    (Nf2.Database.Unknown_relation "nowhere")

(* ----------------------------------------------------- Phantom protection *)

let test_phantom_scan_blocks_insert () =
  (* T1 scans the whole relation (S on the relation node); T2's insert needs
     IX there: blocked — no phantom can appear under T1's scan. *)
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 40 }
  in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Colock.Protocol.create graph table in
  let executor = Query.Executor.create ~threshold:10 db protocol in
  (match
     Query.Executor.run_string executor ~txn:1 "SELECT c FROM c IN cells FOR READ"
   with
   | Ok result ->
     check_int "scan rows" 40 (List.length result.Query.Executor.rows)
   | Error _ -> Alcotest.fail "scan failed");
  check_bool "relation S-locked" true
    (Mode.equal (Table.held table ~txn:1 ~resource:"db1/seg1/cells") Mode.S);
  match
    Query.Executor.insert_object executor ~txn:2 ~wait:false "cells"
      (new_cell "c99")
  with
  | Error (Query.Executor.Blocked { blockers; _ }) ->
    Alcotest.(check (list int)) "blocked by the scanner" [ 1 ] blockers
  | Error _ | Ok _ -> Alcotest.fail "insert must block under a relation scan"

let test_phantom_member_read_does_not_block_insert () =
  (* Finer-granule reads do not protect against phantoms (the paper's §5
     future work) — inserts of NEW objects proceed. *)
  let env = make_env () in
  (match
     Query.Executor.run_string env.executor ~txn:1
       "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "read failed");
  match
    Query.Executor.insert_object env.executor ~txn:2 ~wait:false "cells"
      (new_cell "c2")
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "insert of a new object should proceed"

let test_insert_insert_same_key_conflict () =
  (* Two concurrent inserts of the same key collide on the future node. *)
  let env = make_env () in
  (match Query.Executor.insert_object env.executor ~txn:1 "cells" (new_cell "c2") with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first insert");
  match
    Query.Executor.insert_object env.executor ~txn:2 ~wait:false "cells"
      (new_cell "c2")
  with
  | Error (Query.Executor.Blocked _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "second insert must block, not duplicate"

let () =
  Alcotest.run "dml"
    [ ("graph",
       [ Alcotest.test_case "insert object" `Quick test_graph_insert_object;
         Alcotest.test_case "insert duplicate" `Quick
           test_graph_insert_duplicate;
         Alcotest.test_case "delete object" `Quick test_graph_delete_object;
         Alcotest.test_case "delete referenced refused" `Quick
           test_graph_delete_referenced_refused;
         Alcotest.test_case "delete after unreference" `Quick
           test_graph_delete_after_unreference ]);
      ("executor",
       [ Alcotest.test_case "insert" `Quick test_executor_insert;
         Alcotest.test_case "insert duplicate key" `Quick
           test_executor_insert_duplicate_key;
         Alcotest.test_case "delete" `Quick test_executor_delete;
         Alcotest.test_case "delete referenced" `Quick
           test_executor_delete_referenced;
         Alcotest.test_case "delete absent" `Quick test_executor_delete_absent ]);
      ("phantoms",
       [ Alcotest.test_case "scan blocks insert" `Quick
           test_phantom_scan_blocks_insert;
         Alcotest.test_case "member read does not" `Quick
           test_phantom_member_read_does_not_block_insert;
         Alcotest.test_case "insert/insert same key" `Quick
           test_insert_insert_same_key_conflict ]) ]
