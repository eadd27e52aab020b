(* Tests for the HDBL-like query facility: lexer/parser, analyzer, and the
   locking executor, exercised on the paper's queries Q1, Q2, Q3 (Fig. 3). *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Value = Nf2.Value
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let q1 =
  "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"

let q2 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r1' FOR UPDATE"

let q3 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r2' FOR UPDATE"

let parse_exn text =
  match Query.Parser.parse text with
  | Ok ast -> ast
  | Error error ->
    Alcotest.failf "parse failed: %s"
      (Format.asprintf "%a" Query.Parser.pp_error error)

(* ----------------------------------------------------------------- Parser *)

let test_parse_q1 () =
  let ast = parse_exn q1 in
  check_string "select" "o" ast.Query.Ast.select;
  check_int "two bindings" 2 (List.length ast.Query.Ast.bindings);
  (match ast.Query.Ast.bindings with
   | [ c; o ] ->
     check_string "c" "c" c.Query.Ast.var;
     (match c.Query.Ast.source with
      | Query.Ast.From_relation "cells" -> ()
      | _ -> Alcotest.fail "c should range over cells");
     (match o.Query.Ast.source with
      | Query.Ast.From_path ("c", path) ->
        check_string "o path" "c_objects" (Path.to_string path)
      | _ -> Alcotest.fail "o should range over c.c_objects")
   | _ -> Alcotest.fail "bindings");
  (match ast.Query.Ast.where with
   | [ { Query.Ast.cond_var = "c"; cond_path; value = Query.Ast.L_str "c1" } ] ->
     check_string "condition path" "cell_id" (Path.to_string cond_path)
   | _ -> Alcotest.fail "where");
  check_bool "read" true (ast.Query.Ast.clause = Query.Ast.For_read)

let test_parse_q2 () =
  let ast = parse_exn q2 in
  check_string "select" "r" ast.Query.Ast.select;
  check_int "two conditions" 2 (List.length ast.Query.Ast.where);
  check_bool "update" true (ast.Query.Ast.clause = Query.Ast.For_update)

let test_parse_case_insensitive () =
  let ast =
    parse_exn "select c from c in cells where c.cell_id = 'c1' for update"
  in
  check_string "select" "c" ast.Query.Ast.select

let test_parse_no_where () =
  let ast = parse_exn "SELECT c FROM c IN cells FOR READ" in
  check_int "no conditions" 0 (List.length ast.Query.Ast.where)

let test_parse_literals () =
  let ast =
    parse_exn
      "SELECT o FROM c IN cells, o IN c.c_objects WHERE o.obj_id = 42 FOR READ"
  in
  (match ast.Query.Ast.where with
   | [ { Query.Ast.value = Query.Ast.L_int 42; _ } ] -> ()
   | _ -> Alcotest.fail "int literal");
  let ast = parse_exn "SELECT c FROM c IN cells WHERE c.flag = true FOR READ" in
  match ast.Query.Ast.where with
  | [ { Query.Ast.value = Query.Ast.L_bool true; _ } ] -> ()
  | _ -> Alcotest.fail "bool literal"

let test_parse_delete_clause () =
  let ast = parse_exn "SELECT c FROM c IN cells FOR DELETE" in
  check_bool "delete" true (ast.Query.Ast.clause = Query.Ast.For_delete)

let test_parse_roundtrip_pp () =
  let ast = parse_exn q2 in
  let printed = Format.asprintf "%a" Query.Ast.pp ast in
  let reparsed = parse_exn printed in
  check_bool "pp then parse is stable" true (ast = reparsed)

let expect_parse_error text =
  match Query.Parser.parse text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected parse error for %S" text

let test_parse_errors () =
  expect_parse_error "";
  expect_parse_error "SELECT FROM c IN cells FOR READ";
  expect_parse_error "SELECT c FROM c IN cells";
  expect_parse_error "SELECT c FROM c IN cells FOR WRITE";
  expect_parse_error "SELECT c FROM c IN cells WHERE c.x 'v' FOR READ";
  expect_parse_error "SELECT c FROM c IN cells WHERE c.x = 'unterminated FOR READ";
  expect_parse_error "SELECT c FROM c IN cells FOR READ trailing";
  expect_parse_error "SELECT select FROM select IN cells FOR READ"

(* An integer literal beyond [max_int] is a parse error at its offset, and
   reaches a [Session] caller as one, not as an exception. *)
let test_parse_int_out_of_range () =
  let text =
    "SELECT c FROM c IN cells WHERE c.n = 99999999999999999999 FOR READ"
  in
  (match Query.Parser.parse text with
   | Error { Query.Parser.position; message = _ } ->
     check_int "at the literal" 37 position
   | Ok _ -> Alcotest.fail "out-of-range literal accepted");
  let session = Session.create (Workload.Figure1.database ()) in
  let txn = Session.begin_txn session in
  match Session.query session txn text with
  | Error (Query.Executor.Parse_error { Query.Parser.position; _ }) ->
    check_int "session reports the offset" 37 position
  | Error _ | Ok _ -> Alcotest.fail "expected a parse error from Session"

(* --------------------------------------------------------------- Analyzer *)

let catalog () = Nf2.Database.catalog (Workload.Figure1.database ())

let analyze_exn text =
  match Query.Analyzer.analyze (catalog ()) (parse_exn text) with
  | Ok analysis -> analysis
  | Error error ->
    Alcotest.failf "analysis failed: %s"
      (Format.asprintf "%a" Query.Analyzer.pp_error error)

let test_analyze_q2 () =
  let analysis = analyze_exn q2 in
  check_string "target relation" "cells"
    analysis.Query.Analyzer.target.Query.Analyzer.relation;
  check_string "target path" "robots"
    (Path.to_string analysis.Query.Analyzer.target.Query.Analyzer.path);
  check_int "two object conditions" 2
    (List.length analysis.Query.Analyzer.object_conditions);
  match analysis.Query.Analyzer.accesses with
  | [ access ] ->
    check_string "access relation" "cells" access.Colock.Access.relation;
    check_string "access target" "robots"
      (Path.to_string access.Colock.Access.target);
    check_bool "update kind" true
      (access.Colock.Access.kind = Colock.Access.Update)
  | _ -> Alcotest.fail "one access expected"

let test_analyze_nested_variable () =
  (* e ranges over r.effectors: path robots.effectors *)
  let analysis =
    analyze_exn
      "SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors FOR READ"
  in
  check_string "path composition" "robots.effectors"
    (Path.to_string analysis.Query.Analyzer.target.Query.Analyzer.path)

let test_analyze_unknown_relation () =
  match Query.Analyzer.analyze (catalog ()) (parse_exn "SELECT x FROM x IN nope FOR READ") with
  | Error (Query.Analyzer.Unknown_relation "nope") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unknown_relation"

let test_analyze_unknown_variable () =
  match
    Query.Analyzer.analyze (catalog ())
      (parse_exn "SELECT y FROM c IN cells FOR READ")
  with
  | Error (Query.Analyzer.Unknown_variable "y") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unknown_variable"

let test_analyze_not_a_collection () =
  match
    Query.Analyzer.analyze (catalog ())
      (parse_exn "SELECT x FROM c IN cells, x IN c.cell_id FOR READ")
  with
  | Error (Query.Analyzer.Not_a_collection _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Not_a_collection"

let test_analyze_unknown_attribute () =
  match
    Query.Analyzer.analyze (catalog ())
      (parse_exn "SELECT c FROM c IN cells WHERE c.ghost = 'x' FOR READ")
  with
  | Error (Query.Analyzer.Unknown_attribute _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unknown_attribute"

let test_analyze_duplicate_variable () =
  match
    Query.Analyzer.analyze (catalog ())
      (parse_exn "SELECT c FROM c IN cells, c IN cells FOR READ")
  with
  | Error (Query.Analyzer.Duplicate_variable "c") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Duplicate_variable"

(* --------------------------------------------------------------- Executor *)

type env = {
  table : Table.t;
  rights : Authz.Rights.t;
  executor : Query.Executor.t;
}

let make_env ?(c_objects = 3) () =
  let db = Workload.Figure1.database ~c_objects () in
  let graph = Colock.Instance_graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  { table; rights; executor = Query.Executor.create db protocol }

let run_exn env ~txn text =
  match Query.Executor.run_string env.executor ~txn text with
  | Ok result -> result
  | Error error ->
    Alcotest.failf "query failed: %s"
      (Format.asprintf "%a" Query.Executor.pp_error error)

let held env ~txn resource =
  Table.held env.table ~txn ~resource

let mode_testable = Alcotest.testable Mode.pp Mode.equal
let check_mode label expected actual = Alcotest.check mode_testable label expected actual

let test_executor_q1_rows () =
  let env = make_env ~c_objects:3 () in
  let result = run_exn env ~txn:1 q1 in
  check_int "three c_objects" 3 (List.length result.Query.Executor.rows);
  (* Q1 locks the c_objects HoLU in S (sub-object granule, §3.2.1). *)
  check_mode "c_objects S" Mode.S
    (held env ~txn:1 "db1/seg1/cells/c1/c_objects");
  check_mode "cell c1 IS" Mode.IS (held env ~txn:1 "db1/seg1/cells/c1");
  check_mode "robots untouched" Mode.NL
    (held env ~txn:1 "db1/seg1/cells/c1/robots")

let test_executor_q2_locks_match_figure7 () =
  let env = make_env () in
  Authz.Rights.revoke_modify env.rights ~txn:2 ~relation:"effectors";
  let result = run_exn env ~txn:2 q2 in
  check_int "one robot row" 1 (List.length result.Query.Executor.rows);
  (match result.Query.Executor.rows with
   | [ { Query.Executor.node; _ } ] ->
     check_string "row node" "db1/seg1/cells/c1/robots/r1"
       (Colock.Instance_graph.resource
          (Colock.Protocol.graph (Query.Executor.protocol env.executor))
          node)
   | _ -> Alcotest.fail "one row");
  check_mode "db1 IX" Mode.IX (held env ~txn:2 "db1");
  check_mode "r1 X" Mode.X (held env ~txn:2 "db1/seg1/cells/c1/robots/r1");
  check_mode "robots IX" Mode.IX (held env ~txn:2 "db1/seg1/cells/c1/robots");
  check_mode "e1 S" Mode.S (held env ~txn:2 "db1/seg2/effectors/e1");
  check_mode "e2 S" Mode.S (held env ~txn:2 "db1/seg2/effectors/e2");
  check_mode "e3 free" Mode.NL (held env ~txn:2 "db1/seg2/effectors/e3");
  check_int "exactly 10 locks" 10 (List.length (Table.locks_of env.table ~txn:2))

let test_executor_q1_q2_concurrent () =
  let env = make_env () in
  Authz.Rights.revoke_modify env.rights ~txn:2 ~relation:"effectors";
  let (_ : Query.Executor.result_set) = run_exn env ~txn:1 q1 in
  let (_ : Query.Executor.result_set) = run_exn env ~txn:2 q2 in
  check_mode "Q1 holds" Mode.S (held env ~txn:1 "db1/seg1/cells/c1/c_objects");
  check_mode "Q2 holds" Mode.X (held env ~txn:2 "db1/seg1/cells/c1/robots/r1")

let test_executor_q2_q3_concurrent () =
  let env = make_env () in
  Authz.Rights.revoke_modify env.rights ~txn:2 ~relation:"effectors";
  Authz.Rights.revoke_modify env.rights ~txn:3 ~relation:"effectors";
  let (_ : Query.Executor.result_set) = run_exn env ~txn:2 q2 in
  let (_ : Query.Executor.result_set) = run_exn env ~txn:3 q3 in
  check_mode "T2 holds e2 S" Mode.S (held env ~txn:2 "db1/seg2/effectors/e2");
  check_mode "T3 holds e2 S" Mode.S (held env ~txn:3 "db1/seg2/effectors/e2")

let test_executor_blocked () =
  let env = make_env () in
  let (_ : Query.Executor.result_set) = run_exn env ~txn:2 q2 in
  (* Same query FOR UPDATE by another transaction without authorization
     restrictions: X vs X on r1. *)
  match Query.Executor.run_string env.executor ~txn:5 ~wait:false q2 with
  | Error (Query.Executor.Blocked { node; blockers; waiting }) ->
    check_string "blocked on r1" "db1/seg1/cells/c1/robots/r1"
      (Node_id.to_resource node);
    Alcotest.(check (list int)) "blocker" [ 2 ] blockers;
    check_bool "try-only" false waiting
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "should block"

let test_executor_blocked_then_resume () =
  let env = make_env () in
  let (_ : Query.Executor.result_set) = run_exn env ~txn:2 q2 in
  (match Query.Executor.run_string env.executor ~txn:5 q2 with
   | Error (Query.Executor.Blocked { waiting = true; _ }) -> ()
   | Error _ | Ok _ -> Alcotest.fail "should queue");
  let (_ : Table.grant list) =
    Colock.Protocol.end_of_transaction
      (Query.Executor.protocol env.executor) ~txn:2
  in
  match Query.Executor.run_string env.executor ~txn:5 q2 with
  | Ok result -> check_int "row arrives" 1 (List.length result.Query.Executor.rows)
  | Error _ -> Alcotest.fail "retry should succeed"

let test_executor_scan_locks_relation () =
  (* An unrestricted scan of a populous relation escalates to the relation
     lock up front. *)
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 64 }
  in
  let graph = Colock.Instance_graph.build db in
  let table = Table.create () in
  let protocol = Colock.Protocol.create graph table in
  let executor = Query.Executor.create ~threshold:10 db protocol in
  match Query.Executor.run_string executor ~txn:1 "SELECT c FROM c IN cells FOR READ" with
  | Ok result ->
    check_int "64 rows" 64 (List.length result.Query.Executor.rows);
    check_int "one lock request" 1 result.Query.Executor.locks_requested;
    check_mode "relation S" Mode.S
      (Table.held table ~txn:1 ~resource:"db1/seg1/cells")
  | Error _ -> Alcotest.fail "scan failed"

let test_executor_empty_result () =
  let env = make_env () in
  let result =
    run_exn env ~txn:1
      "SELECT c FROM c IN cells WHERE c.cell_id = 'c99' FOR READ"
  in
  check_int "no rows" 0 (List.length result.Query.Executor.rows)

let test_executor_nested_refs_query () =
  let env = make_env () in
  let result =
    run_exn env ~txn:1
      "SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors FOR READ"
  in
  (* 2 robots x 2 refs = 4 ref BLU members *)
  check_int "four ref rows" 4 (List.length result.Query.Executor.rows)

let test_executor_update_roundtrip () =
  let env = make_env () in
  let result = run_exn env ~txn:2 q2 in
  (match result.Query.Executor.rows with
   | [ row ] -> (
     let updated =
       match row.Query.Executor.value with
       | Value.Tuple bindings ->
         Value.Tuple
           (List.map
              (fun (field, sub) ->
                if String.equal field "trajectory" then
                  (field, Value.Str "tr1-updated")
                else (field, sub))
              bindings)
       | _ -> Alcotest.fail "robot should be a tuple"
     in
     match
       Query.Executor.apply_update env.executor ~txn:2 row (fun _old -> updated)
     with
     | Ok () -> ()
     | Error error ->
       Alcotest.failf "update failed: %s"
         (Format.asprintf "%a" Nf2.Database.pp_error error))
   | _ -> Alcotest.fail "one row expected");
  (* Read it back. *)
  let db = Query.Executor.database env.executor in
  let cell = Option.get (Nf2.Database.deref db (Oid.make ~relation:"cells" ~key:"c1")) in
  let trajectories = Value.project cell (Path.of_string "robots.trajectory") in
  check_bool "trajectory updated" true
    (List.exists (Value.equal (Value.Str "tr1-updated")) trajectories);
  check_bool "other robot untouched" true
    (List.exists (Value.equal (Value.Str "tr2")) trajectories)

let () =
  Alcotest.run "query"
    [ ("parser",
       [ Alcotest.test_case "q1" `Quick test_parse_q1;
         Alcotest.test_case "q2" `Quick test_parse_q2;
         Alcotest.test_case "case insensitive" `Quick
           test_parse_case_insensitive;
         Alcotest.test_case "no where" `Quick test_parse_no_where;
         Alcotest.test_case "literals" `Quick test_parse_literals;
         Alcotest.test_case "delete clause" `Quick test_parse_delete_clause;
         Alcotest.test_case "pp roundtrip" `Quick test_parse_roundtrip_pp;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "int out of range" `Quick
           test_parse_int_out_of_range ]);
      ("analyzer",
       [ Alcotest.test_case "q2" `Quick test_analyze_q2;
         Alcotest.test_case "nested variable" `Quick
           test_analyze_nested_variable;
         Alcotest.test_case "unknown relation" `Quick
           test_analyze_unknown_relation;
         Alcotest.test_case "unknown variable" `Quick
           test_analyze_unknown_variable;
         Alcotest.test_case "not a collection" `Quick
           test_analyze_not_a_collection;
         Alcotest.test_case "unknown attribute" `Quick
           test_analyze_unknown_attribute;
         Alcotest.test_case "duplicate variable" `Quick
           test_analyze_duplicate_variable ]);
      ("executor",
       [ Alcotest.test_case "q1 rows and locks" `Quick test_executor_q1_rows;
         Alcotest.test_case "q2 locks match figure 7" `Quick
           test_executor_q2_locks_match_figure7;
         Alcotest.test_case "q1 || q2" `Quick test_executor_q1_q2_concurrent;
         Alcotest.test_case "q2 || q3" `Quick test_executor_q2_q3_concurrent;
         Alcotest.test_case "blocked" `Quick test_executor_blocked;
         Alcotest.test_case "blocked then resume" `Quick
           test_executor_blocked_then_resume;
         Alcotest.test_case "scan locks relation" `Quick
           test_executor_scan_locks_relation;
         Alcotest.test_case "empty result" `Quick test_executor_empty_result;
         Alcotest.test_case "nested refs query" `Quick
           test_executor_nested_refs_query;
         Alcotest.test_case "update roundtrip" `Quick
           test_executor_update_roundtrip ]) ]
