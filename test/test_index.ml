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
     Nf2.Database.replace db
       (Oid.make ~relation:"effectors" ~key:"e2")
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

(* ---------------------------------------------------------------- lockstep *)

(* Random inserts, replaces and deletes through [Nf2.Database]; after each,
   every index must answer every rendering ever seen exactly as a fresh
   [Index.build] of the relation does. Replaces move an indexed value in any
   robot or object (not only the first), leave indexed paths alone, reorder,
   drop or append members, fail to typecheck, or carry a fresh key. *)

let lockstep_indexes =
  [ ("cells", "cell_id"); ("cells", "robots.trajectory");
    ("cells", "robots.robot_id"); ("cells", "c_objects.obj_id");
    ("cells", "c_objects.obj_name"); ("effectors", "tool");
    ("effectors", "eff_id") ]

let pool = [| "tr1"; "tr2"; "tr3"; "x"; "o1"; "t1"; "t2" |]

let edit_nth state members edit =
  match members with
  | [] -> []
  | _ :: _ ->
    let chosen = Random.State.int state (List.length members) in
    List.mapi (fun index member -> if index = chosen then edit member else member) members

let set_field name replacement = function
  | Value.Tuple fields ->
    Value.Tuple
      (List.map
         (fun (field, sub) ->
           if String.equal field name then (field, replacement) else (field, sub))
         fields)
  | other -> other

let map_field name edit = function
  | Value.Tuple fields ->
    Value.Tuple
      (List.map
         (fun (field, sub) ->
           if String.equal field name then (field, edit sub) else (field, sub))
         fields)
  | other -> other

let on_members edit = function
  | Value.Set members -> Value.Set (edit members)
  | Value.List members -> Value.List (edit members)
  | other -> other

let edit_cell state value =
  let word () = Value.Str pool.(Random.State.int state (Array.length pool)) in
  match Random.State.int state 9 with
  | 0 | 1 ->
    map_field "robots"
      (on_members (fun robots ->
           edit_nth state robots (set_field "trajectory" (word ()))))
      value
  | 2 ->
    map_field "c_objects"
      (on_members (fun objects ->
           edit_nth state objects (set_field "obj_name" (word ()))))
      value
  | 3 -> map_field "robots" (on_members List.rev) value
  | 4 -> map_field "robots" (on_members (function [] -> [] | _ :: rest -> rest)) value
  | 5 ->
    map_field "robots"
      (on_members (fun robots ->
           robots
           @ [ Workload.Figure1.robot ~key:"r9"
                 ~trajectory:pool.(Random.State.int state 4) ~effectors:[] ]))
      value
  | 6 -> value
  | 7 ->
    map_field "robots"
      (on_members (fun robots ->
           edit_nth state robots (set_field "trajectory" (Value.Int 3))))
      value
  | _ -> set_field "cell_id" (Value.Str (Printf.sprintf "n%d" (Random.State.int state 6))) value

let random_step db state =
  let cells = Option.get (Nf2.Database.relation db "cells") in
  let keys = Nf2.Relation.keys cells in
  let some_key () =
    if keys = [] || Random.State.int state 5 = 0 then
      Printf.sprintf "n%d" (Random.State.int state 6)
    else List.nth keys (Random.State.int state (List.length keys))
  in
  match Random.State.int state 6 with
  | 0 ->
    ignore
      (Nf2.Database.insert db "cells"
         (Workload.Figure1.cell ~key:(some_key ())
            ~objects:[ Workload.Figure1.cell_object ~id:1 ~name:pool.(Random.State.int state 7) ]
            ~robots:
              [ Workload.Figure1.robot ~key:"r1" ~trajectory:pool.(Random.State.int state 7)
                  ~effectors:[] ])
        : (Oid.t, Nf2.Database.error) result)
  | 1 | 2 | 3 -> (
    let key = some_key () in
    match Nf2.Relation.find cells key with
    | Some value ->
      ignore
        (Nf2.Database.replace db
           (Oid.make ~relation:"cells" ~key)
           (edit_cell state value)
          : (Value.t, Nf2.Database.error) result)
    | None -> ())
  | 4 -> (
    let effectors = Option.get (Nf2.Database.relation db "effectors") in
    match Nf2.Relation.objects effectors with
    | [] -> ()
    | objects ->
      let key, value = List.nth objects (Random.State.int state (List.length objects)) in
      ignore
        (Nf2.Database.replace db
           (Oid.make ~relation:"effectors" ~key)
           (set_field "tool" (Value.Str pool.(Random.State.int state 7)) value)
          : (Value.t, Nf2.Database.error) result))
  | _ ->
    ignore
      (Nf2.Database.delete db (Oid.make ~relation:"cells" ~key:(some_key ()))
        : (unit, Nf2.Database.error) result)

let renderings_in db (relation, path) =
  let store = Option.get (Nf2.Database.relation db relation) in
  Nf2.Relation.fold
    (fun _key value accu ->
      List.filter_map Value.render_atomic (Value.project value (Path.of_string path))
      @ accu)
    store []

let indexes_agree_with_rebuild db seen =
  List.for_all
    (fun ((relation, path) as indexed) ->
      let store = Option.get (Nf2.Database.relation db relation) in
      let fresh =
        match Nf2.Index.build store (Path.of_string path) with
        | Ok index -> index
        | Error message -> failwith message
      in
      List.iter (fun rendering -> Hashtbl.replace seen rendering ()) (renderings_in db indexed);
      Hashtbl.fold
        (fun rendering () agree ->
          agree
          && lookup db relation path (Value.Str rendering)
             = Nf2.Index.lookup fresh (Value.Str rendering))
        seen true)
    lockstep_indexes

let prop_indexes_match_rebuild =
  QCheck.Test.make ~name:"indexes answer as a fresh build after any DML"
    ~count:200
    (QCheck.make
       ~print:(fun (seed, steps) -> Printf.sprintf "seed=%d steps=%d" seed steps)
       QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 1 40)))
    (fun (seed, steps) ->
      let db =
        Workload.Generator.manufacturing
          { Workload.Generator.cells = 4; objects_per_cell = 3;
            robots_per_cell = 3; effectors = 4; effectors_per_robot = 2; seed }
      in
      List.iter (fun (relation, path) -> build_index db relation path) lockstep_indexes;
      let state = Random.State.make [| seed |] in
      let seen = Hashtbl.create 64 in
      Array.iter (fun word -> Hashtbl.replace seen word ()) pool;
      let rec go step =
        step = 0
        || begin
          random_step db state;
          indexes_agree_with_rebuild db seen && go (step - 1)
        end
      in
      go steps)

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
         Alcotest.test_case "delete" `Quick test_index_maintained_on_delete;
         QCheck_alcotest.to_alcotest prop_indexes_match_rebuild ]);
      ("executor",
       [ Alcotest.test_case "uses index" `Quick test_executor_uses_index;
         Alcotest.test_case "scan without" `Quick
           test_executor_without_index_scans;
         Alcotest.test_case "equivalence" `Quick
           test_executor_index_equivalence;
         Alcotest.test_case "other conditions" `Quick
           test_executor_index_respects_other_conditions ]) ]
