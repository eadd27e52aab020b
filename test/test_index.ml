(* Tests for secondary indexes: construction, maintenance under DML, and
   executor integration (index-assisted selection with identical results and
   locks). *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Value = Nf2.Value

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 ?c_objects () = Workload.Figure1.database ?c_objects ()

let build_index db relation path =
  match
    Nf2.Database.create_index db ~relation (Path.of_string path)
  with
  | Ok () -> ()
  | Error error ->
    Alcotest.failf "create_index failed: %s"
      (Format.asprintf "%a" Nf2.Database.pp_error error)

let lookup db relation path probe =
  match
    Nf2.Database.index_lookup db ~relation ~path:(Path.of_string path) probe
  with
  | Some keys -> keys
  | None -> Alcotest.fail "index expected"

(* -------------------------------------------------------------- building *)

let test_index_on_key () =
  let db = fig1 () in
  build_index db "effectors" "eff_id";
  Alcotest.(check (list string)) "lookup e2" [ "e2" ]
    (lookup db "effectors" "eff_id" (Value.Str "e2"));
  Alcotest.(check (list string)) "lookup missing" []
    (lookup db "effectors" "eff_id" (Value.Str "e9"))

let test_index_on_non_key () =
  let db = fig1 () in
  build_index db "effectors" "tool";
  Alcotest.(check (list string)) "lookup by tool" [ "e2" ]
    (lookup db "effectors" "tool" (Value.Str "t2"))

let test_index_inside_collection () =
  (* robots.robot_id lives inside a list: the cell appears once per robot
     value, deduplicated per distinct value. *)
  let db = fig1 () in
  build_index db "cells" "robots.robot_id";
  Alcotest.(check (list string)) "cell via robot id" [ "c1" ]
    (lookup db "cells" "robots.robot_id" (Value.Str "r2"))

let test_index_rejects_non_atomic () =
  let db = fig1 () in
  match
    Nf2.Database.create_index db ~relation:"cells" (Path.of_string "robots")
  with
  | Error (Nf2.Database.Index_error _) -> ()
  | Error _ | Ok () -> Alcotest.fail "collection path must be rejected"

let test_index_unknown_relation () =
  let db = fig1 () in
  match
    Nf2.Database.create_index db ~relation:"nope" (Path.of_string "x")
  with
  | Error (Nf2.Database.Unknown_relation "nope") -> ()
  | Error _ | Ok () -> Alcotest.fail "unknown relation must be rejected"

let test_indexed_paths_listing () =
  let db = fig1 () in
  build_index db "effectors" "tool";
  build_index db "effectors" "eff_id";
  Alcotest.(check (list string)) "paths sorted" [ "eff_id"; "tool" ]
    (List.map Path.to_string (Nf2.Database.indexed_paths db ~relation:"effectors"));
  Nf2.Database.drop_index db ~relation:"effectors" (Path.of_string "tool");
  Alcotest.(check (list string)) "dropped" [ "eff_id" ]
    (List.map Path.to_string (Nf2.Database.indexed_paths db ~relation:"effectors"))

(* ----------------------------------------------------------- maintenance *)

let test_index_maintained_on_insert () =
  let db = fig1 () in
  build_index db "effectors" "tool";
  (match
     Nf2.Database.insert db "effectors"
       (Workload.Figure1.effector ~key:"e4" ~tool:"t2")
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "insert failed");
  Alcotest.(check (list string)) "both e2 and e4 under t2" [ "e2"; "e4" ]
    (lookup db "effectors" "tool" (Value.Str "t2"))

let test_index_maintained_on_replace () =
  let db = fig1 () in
  build_index db "effectors" "tool";
  (match
     Nf2.Database.replace db "effectors"
       (Workload.Figure1.effector ~key:"e2" ~tool:"t99")
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "replace failed");
  Alcotest.(check (list string)) "old entry gone" []
    (lookup db "effectors" "tool" (Value.Str "t2"));
  Alcotest.(check (list string)) "new entry present" [ "e2" ]
    (lookup db "effectors" "tool" (Value.Str "t99"))

let test_index_maintained_on_delete () =
  let db = fig1 () in
  build_index db "effectors" "tool";
  (match Nf2.Database.delete db (Oid.make ~relation:"effectors" ~key:"e2") with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "delete failed");
  Alcotest.(check (list string)) "entry removed" []
    (lookup db "effectors" "tool" (Value.Str "t2"))

(* -------------------------------------------------------------- executor *)

let executor_env ~with_index =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 12 }
  in
  if with_index then build_index db "cells" "cell_id";
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let protocol = Colock.Protocol.create graph table in
  (db, table, Query.Executor.create db protocol)

let q_c7 = "SELECT c FROM c IN cells WHERE c.cell_id = 'c7' FOR READ"

let test_executor_uses_index () =
  let _db, _table, executor = executor_env ~with_index:true in
  match Query.Executor.run_string executor ~txn:1 q_c7 with
  | Ok result ->
    check_bool "index used" true result.Query.Executor.used_index;
    check_int "one row" 1 (List.length result.Query.Executor.rows)
  | Error _ -> Alcotest.fail "query failed"

let test_executor_without_index_scans () =
  let _db, _table, executor = executor_env ~with_index:false in
  match Query.Executor.run_string executor ~txn:1 q_c7 with
  | Ok result ->
    check_bool "no index used" false result.Query.Executor.used_index;
    check_int "one row" 1 (List.length result.Query.Executor.rows)
  | Error _ -> Alcotest.fail "query failed"

let test_executor_index_equivalence () =
  (* identical rows and identical lock sets with and without the index *)
  let run with_index =
    let _db, table, executor = executor_env ~with_index in
    match Query.Executor.run_string executor ~txn:1 q_c7 with
    | Ok result ->
      ( List.map
          (fun row ->
            Colock.Instance_graph.resource
              (Colock.Protocol.graph (Query.Executor.protocol executor))
              row.Query.Executor.node)
          result.Query.Executor.rows,
        Lockmgr.Lock_table.locks_of table ~txn:1 )
    | Error _ -> Alcotest.fail "query failed"
  in
  let rows_with, locks_with = run true in
  let rows_without, locks_without = run false in
  check_bool "same rows" true (rows_with = rows_without);
  check_bool "same locks" true (locks_with = locks_without)

let test_executor_index_respects_other_conditions () =
  (* the index narrows candidates; remaining conditions still filter *)
  let db = fig1 () in
  build_index db "cells" "cell_id";
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let protocol = Colock.Protocol.create graph table in
  let executor = Query.Executor.create db protocol in
  match
    Query.Executor.run_string executor ~txn:1
      "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
       r.robot_id = 'r9' FOR READ"
  with
  | Ok result ->
    check_bool "index used" true result.Query.Executor.used_index;
    check_int "no matching robot" 0 (List.length result.Query.Executor.rows)
  | Error _ -> Alcotest.fail "query failed"

let () =
  Alcotest.run "index"
    [ ("building",
       [ Alcotest.test_case "on key" `Quick test_index_on_key;
         Alcotest.test_case "on non-key" `Quick test_index_on_non_key;
         Alcotest.test_case "inside collection" `Quick
           test_index_inside_collection;
         Alcotest.test_case "rejects non-atomic" `Quick
           test_index_rejects_non_atomic;
         Alcotest.test_case "unknown relation" `Quick
           test_index_unknown_relation;
         Alcotest.test_case "listing and drop" `Quick
           test_indexed_paths_listing ]);
      ("maintenance",
       [ Alcotest.test_case "insert" `Quick test_index_maintained_on_insert;
         Alcotest.test_case "replace" `Quick test_index_maintained_on_replace;
         Alcotest.test_case "delete" `Quick test_index_maintained_on_delete ]);
      ("executor",
       [ Alcotest.test_case "uses index" `Quick test_executor_uses_index;
         Alcotest.test_case "scan without" `Quick
           test_executor_without_index_scans;
         Alcotest.test_case "equivalence" `Quick
           test_executor_index_equivalence;
         Alcotest.test_case "other conditions" `Quick
           test_executor_index_respects_other_conditions ]) ]
