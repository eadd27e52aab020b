(* Unit tests for the extended NF² data model substrate. *)

module Schema = Nf2.Schema
module Value = Nf2.Value
module Path = Nf2.Path
module Oid = Nf2.Oid

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ Path *)

let test_path_roundtrip () =
  let path = Path.of_string "c_objects.obj_id" in
  check_string "to_string" "c_objects.obj_id" (Path.to_string path);
  check (Alcotest.list Alcotest.string) "to_list" [ "c_objects"; "obj_id" ]
    (Path.to_list path)

let test_path_root () =
  check_bool "root is empty" true (Path.equal Path.root (Path.of_string ""));
  check_int "root length" 0 (Path.length Path.root);
  check_bool "root has no parent" true (Path.parent Path.root = None);
  check_bool "root has no last" true (Path.last Path.root = None)

let test_path_child_parent () =
  let path = Path.child (Path.child Path.root "robots") "robot_id" in
  check_string "child builds" "robots.robot_id" (Path.to_string path);
  (match Path.parent path with
   | Some parent -> check_string "parent" "robots" (Path.to_string parent)
   | None -> Alcotest.fail "expected a parent");
  check_string "last" "robot_id"
    (Option.value ~default:"?" (Path.last path))

let test_path_prefix () =
  let robots = Path.of_string "robots" in
  let robot_id = Path.of_string "robots.robot_id" in
  check_bool "prefix holds" true (Path.is_prefix ~prefix:robots robot_id);
  check_bool "equal is prefix" true (Path.is_prefix ~prefix:robots robots);
  check_bool "root is prefix of all" true
    (Path.is_prefix ~prefix:Path.root robot_id);
  check_bool "reverse fails" false (Path.is_prefix ~prefix:robot_id robots);
  check_bool "sibling fails" false
    (Path.is_prefix ~prefix:(Path.of_string "cells") robot_id)

let test_path_compare () =
  let sorted =
    List.sort Path.compare
      [ Path.of_string "robots.robot_id"; Path.of_string "c_objects";
        Path.of_string "robots" ]
  in
  check
    (Alcotest.list Alcotest.string)
    "sorted order"
    [ "c_objects"; "robots"; "robots.robot_id" ]
    (List.map Path.to_string sorted)

(* ------------------------------------------------------------------- Oid *)

let test_oid_roundtrip () =
  let oid = Oid.make ~relation:"effectors" ~key:"e1" in
  check_string "to_string" "effectors/e1" (Oid.to_string oid);
  match Oid.of_string "effectors/e1" with
  | Some parsed -> check_bool "equal" true (Oid.equal oid parsed)
  | None -> Alcotest.fail "of_string failed"

let test_oid_of_string_invalid () =
  check_bool "no slash" true (Oid.of_string "effectors" = None);
  check_bool "empty relation" true (Oid.of_string "/e1" = None);
  check_bool "empty key" true (Oid.of_string "effectors/" = None)

let test_oid_compare () =
  let a = Oid.make ~relation:"cells" ~key:"c1" in
  let b = Oid.make ~relation:"effectors" ~key:"e1" in
  check_bool "ordered by relation" true (Oid.compare a b < 0);
  check_bool "self" true (Oid.compare a a = 0)

(* ---------------------------------------------------------------- Schema *)

let test_schema_validate_ok () =
  check_bool "cells valid" true
    (Schema.validate Workload.Figure1.cells_schema = Ok ());
  check_bool "effectors valid" true
    (Schema.validate Workload.Figure1.effectors_schema = Ok ())

let test_schema_validate_missing_key () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"nope"
      [ Schema.field "id" (Schema.Atomic Schema.Str) ]
  in
  match Schema.validate bad with
  | Error (Schema.Missing_key_field "nope") -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Missing_key_field"

let test_schema_validate_key_not_atomic () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"id"
      [ Schema.field "id" (Schema.Set (Schema.Atomic Schema.Str)) ]
  in
  match Schema.validate bad with
  | Error (Schema.Key_not_atomic "id") -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Key_not_atomic"

let test_schema_validate_key_is_ref () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"id"
      [ Schema.field "id" (Schema.Atomic (Schema.Ref "other")) ]
  in
  match Schema.validate bad with
  | Error (Schema.Key_is_reference "id") -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Key_is_reference"

let test_schema_validate_duplicate_field () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "id" (Schema.Atomic Schema.Int) ]
  in
  match Schema.validate bad with
  | Error (Schema.Duplicate_field _) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Duplicate_field"

let test_schema_validate_nested_duplicate () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "inner"
          (Schema.Tuple
             [ Schema.field "x" (Schema.Atomic Schema.Int);
               Schema.field "x" (Schema.Atomic Schema.Int) ]) ]
  in
  match Schema.validate bad with
  | Error (Schema.Duplicate_field _) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected nested Duplicate_field"

let test_schema_validate_empty_tuple () =
  let bad =
    Schema.relation ~name:"broken" ~segment:"seg" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "inner" (Schema.Tuple []) ]
  in
  match Schema.validate bad with
  | Error (Schema.Empty_tuple _) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Empty_tuple"

let test_schema_find_attr () =
  let cells = Workload.Figure1.cells_schema in
  (match Schema.find_attr cells (Path.of_string "cell_id") with
   | Some (Schema.Atomic Schema.Str) -> ()
   | Some _ | None -> Alcotest.fail "cell_id should be atomic str");
  (match Schema.find_attr cells (Path.of_string "robots") with
   | Some (Schema.List _) -> ()
   | Some _ | None -> Alcotest.fail "robots should be a list");
  (match Schema.find_attr cells (Path.of_string "robots.effectors") with
   | Some (Schema.Set (Schema.Atomic (Schema.Ref "effectors"))) -> ()
   | Some _ | None -> Alcotest.fail "robots.effectors should be set of refs");
  (match Schema.find_attr cells (Path.of_string "robots.robot_id") with
   | Some (Schema.Atomic Schema.Str) -> ()
   | Some _ | None -> Alcotest.fail "robots.robot_id should be atomic");
  check_bool "missing path" true
    (Schema.find_attr cells (Path.of_string "robots.nope") = None);
  match Schema.find_attr cells Path.root with
  | Some (Schema.Tuple _) -> ()
  | Some _ | None -> Alcotest.fail "root should be the complex tuple"

let test_schema_reference_paths () =
  let refs = Schema.reference_paths Workload.Figure1.cells_schema in
  check_int "one reference path" 1 (List.length refs);
  match refs with
  | [ (path, target) ] ->
    check_string "path" "robots.effectors" (Path.to_string path);
    check_string "target" "effectors" target
  | _ -> Alcotest.fail "unexpected reference paths"

let test_schema_attr_paths () =
  let paths = Schema.attr_paths Workload.Figure1.cells_schema in
  check
    (Alcotest.list Alcotest.string)
    "depth-first attribute paths"
    [ "cell_id"; "c_objects"; "c_objects.obj_id"; "c_objects.obj_name";
      "robots"; "robots.robot_id"; "robots.trajectory"; "robots.effectors" ]
    (List.map Path.to_string paths)

let test_schema_depth () =
  (* object tuple (1) + robots collection (1) + member tuple (1) + effectors
     collection (1) = 4 *)
  check_int "cells depth" 4 (Schema.depth Workload.Figure1.cells_schema);
  check_int "effectors depth" 1
    (Schema.depth Workload.Figure1.effectors_schema)

(* ----------------------------------------------------------------- Value *)

let effector_type = Schema.Tuple Workload.Figure1.effectors_schema.Schema.fields

let test_value_typecheck_ok () =
  let value = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  check_bool "well-typed" true (Value.typecheck effector_type value = Ok ())

let test_value_typecheck_wrong_atom () =
  let value = Value.Tuple [ ("eff_id", Value.Int 1); ("tool", Value.Str "t") ] in
  match Value.typecheck effector_type value with
  | Error { at; _ } -> check_string "error location" "eff_id" (Path.to_string at)
  | Ok () -> Alcotest.fail "expected type error"

let test_value_typecheck_missing_field () =
  let value = Value.Tuple [ ("eff_id", Value.Str "e1") ] in
  check_bool "missing field rejected" true
    (Result.is_error (Value.typecheck effector_type value))

let test_value_typecheck_extra_field () =
  let value =
    Value.Tuple
      [ ("eff_id", Value.Str "e1"); ("tool", Value.Str "t");
        ("extra", Value.Int 1) ]
  in
  check_bool "extra field rejected" true
    (Result.is_error (Value.typecheck effector_type value))

let test_value_typecheck_field_order () =
  let value = Value.Tuple [ ("tool", Value.Str "t"); ("eff_id", Value.Str "e") ] in
  check_bool "order matters" true
    (Result.is_error (Value.typecheck effector_type value))

let test_value_typecheck_ref_target () =
  let attr = Schema.Atomic (Schema.Ref "effectors") in
  check_bool "right target" true
    (Value.typecheck attr (Value.ref_to ~relation:"effectors" ~key:"e1")
     = Ok ());
  check_bool "wrong target" true
    (Result.is_error
       (Value.typecheck attr (Value.ref_to ~relation:"cells" ~key:"c1")))

let test_value_typecheck_object () =
  let cell =
    Workload.Figure1.cell ~key:"c1"
      ~objects:[ Workload.Figure1.cell_object ~id:1 ~name:"o1" ]
      ~robots:
        [ Workload.Figure1.robot ~key:"r1" ~trajectory:"tr1"
            ~effectors:[ "e1" ] ]
  in
  check_bool "cell object well-typed" true
    (Value.typecheck_object Workload.Figure1.cells_schema cell = Ok ())

let test_value_key_of_object () =
  let value = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  check_string "key" "e1"
    (Option.value ~default:"?"
       (Value.key_of_object Workload.Figure1.effectors_schema value))

let test_value_project () =
  let cell =
    Workload.Figure1.cell ~key:"c1"
      ~objects:
        [ Workload.Figure1.cell_object ~id:1 ~name:"o1";
          Workload.Figure1.cell_object ~id:2 ~name:"o2" ]
      ~robots:
        [ Workload.Figure1.robot ~key:"r1" ~trajectory:"tr1"
            ~effectors:[ "e1"; "e2" ] ]
  in
  let names = Value.project cell (Path.of_string "c_objects.obj_name") in
  check_int "two names" 2 (List.length names);
  check_bool "values" true
    (List.for_all
       (fun v -> match v with Value.Str _ -> true | _ -> false)
       names);
  let whole = Value.project cell Path.root in
  check_int "root projects self" 1 (List.length whole);
  check_int "missing path empty" 0
    (List.length (Value.project cell (Path.of_string "nope")))

let test_value_refs () =
  let cell =
    Workload.Figure1.cell ~key:"c1" ~objects:[]
      ~robots:
        [ Workload.Figure1.robot ~key:"r1" ~trajectory:"tr1"
            ~effectors:[ "e1"; "e2" ];
          Workload.Figure1.robot ~key:"r2" ~trajectory:"tr2"
            ~effectors:[ "e2" ] ]
  in
  let refs = Value.refs cell in
  check_int "three refs (duplicates kept)" 3 (List.length refs);
  check
    (Alcotest.list Alcotest.string)
    "depth-first order" [ "effectors/e1"; "effectors/e2"; "effectors/e2" ]
    (List.map Oid.to_string refs)

let test_value_equal () =
  let a = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  let b = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  let c = Workload.Figure1.effector ~key:"e1" ~tool:"t2" in
  check_bool "equal" true (Value.equal a b);
  check_bool "not equal" false (Value.equal a c)

(* -------------------------------------------------------------- Relation *)

let make_effectors () =
  match Nf2.Relation.create Workload.Figure1.effectors_schema with
  | Ok store -> store
  | Error _ -> Alcotest.fail "cannot create relation"

let test_relation_insert_find () =
  let store = make_effectors () in
  (match
     Nf2.Relation.insert store (Workload.Figure1.effector ~key:"e1" ~tool:"t1")
   with
   | Ok oid -> check_string "oid" "effectors/e1" (Oid.to_string oid)
   | Error _ -> Alcotest.fail "insert failed");
  check_bool "mem" true (Nf2.Relation.mem store "e1");
  check_int "cardinality" 1 (Nf2.Relation.cardinality store);
  match Nf2.Relation.find store "e1" with
  | Some value ->
    check_bool "roundtrip" true
      (Value.equal value (Workload.Figure1.effector ~key:"e1" ~tool:"t1"))
  | None -> Alcotest.fail "find failed"

let test_relation_duplicate_key () =
  let store = make_effectors () in
  let value = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  check_bool "first" true (Result.is_ok (Nf2.Relation.insert store value));
  match Nf2.Relation.insert store value with
  | Error (Nf2.Relation.Duplicate_key "e1") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Duplicate_key"

let test_relation_replace () =
  let store = make_effectors () in
  let v1 = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  let v2 = Workload.Figure1.effector ~key:"e1" ~tool:"t9" in
  check_bool "insert" true (Result.is_ok (Nf2.Relation.insert store v1));
  check_bool "replace" true
    (Result.is_ok (Nf2.Relation.replace store ~key:"e1" v2));
  check_int "still one" 1 (Nf2.Relation.cardinality store);
  (match Nf2.Relation.find store "e1" with
   | Some value -> check_bool "updated" true (Value.equal value v2)
   | None -> Alcotest.fail "find failed");
  (* a replace never inserts, and an absent key is reported before the
     changed key *)
  (match Nf2.Relation.replace store ~key:"e7" v1 with
   | Error (Nf2.Relation.Unknown_key "e7") -> ()
   | Error _ | Ok _ -> Alcotest.fail "expected Unknown_key");
  check_int "a free key stays free" 1 (Nf2.Relation.cardinality store)

let test_relation_delete () =
  let store = make_effectors () in
  let value = Workload.Figure1.effector ~key:"e1" ~tool:"t1" in
  check_bool "insert" true (Result.is_ok (Nf2.Relation.insert store value));
  check_bool "delete" true (Nf2.Relation.delete store "e1" = Ok ());
  check_bool "gone" false (Nf2.Relation.mem store "e1");
  match Nf2.Relation.delete store "e1" with
  | Error (Nf2.Relation.Unknown_key "e1") -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Unknown_key"

let test_relation_typecheck_on_insert () =
  let store = make_effectors () in
  let bad = Value.Tuple [ ("eff_id", Value.Int 1); ("tool", Value.Str "t") ] in
  match Nf2.Relation.insert store bad with
  | Error (Nf2.Relation.Type_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Type_error"

let test_relation_keys_sorted () =
  let store = make_effectors () in
  List.iter
    (fun key ->
      match
        Nf2.Relation.insert store (Workload.Figure1.effector ~key ~tool:"t")
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "insert failed")
    [ "e3"; "e1"; "e2" ];
  check
    (Alcotest.list Alcotest.string)
    "ascending keys" [ "e1"; "e2"; "e3" ] (Nf2.Relation.keys store)

(* --------------------------------------------------------------- Catalog *)

let test_catalog_shared () =
  let catalog = Nf2.Catalog.create () in
  check_bool "add effectors" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.effectors_schema));
  check_bool "add cells" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.cells_schema));
  check_bool "validate" true (Nf2.Catalog.validate catalog = Ok ());
  check_bool "effectors shared" true (Nf2.Catalog.is_shared catalog "effectors");
  check_bool "cells not shared" false (Nf2.Catalog.is_shared catalog "cells");
  check
    (Alcotest.list Alcotest.string)
    "shared list" [ "effectors" ]
    (Nf2.Catalog.shared_relations catalog);
  match Nf2.Catalog.referencing catalog "effectors" with
  | [ (relation, path) ] ->
    check_string "referencing relation" "cells" relation;
    check_string "referencing path" "robots.effectors" (Path.to_string path)
  | _ -> Alcotest.fail "expected exactly one referencing path"

let test_catalog_duplicate () =
  let catalog = Nf2.Catalog.create () in
  check_bool "first" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.cells_schema));
  match Nf2.Catalog.add catalog Workload.Figure1.cells_schema with
  | Error (Nf2.Catalog.Duplicate_relation "cells") -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Duplicate_relation"

let test_catalog_unknown_target () =
  let catalog = Nf2.Catalog.create () in
  check_bool "add cells only" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.cells_schema));
  match Nf2.Catalog.validate catalog with
  | Error (Nf2.Catalog.Unknown_target { target = "effectors"; _ }) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Unknown_target"

let test_catalog_cycle () =
  let a =
    Schema.relation ~name:"a" ~segment:"s" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "to_b" (Schema.Atomic (Schema.Ref "b")) ]
  in
  let b =
    Schema.relation ~name:"b" ~segment:"s" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "to_a" (Schema.Atomic (Schema.Ref "a")) ]
  in
  let catalog = Nf2.Catalog.create () in
  check_bool "add a" true (Result.is_ok (Nf2.Catalog.add catalog a));
  check_bool "add b" true (Result.is_ok (Nf2.Catalog.add catalog b));
  match Nf2.Catalog.validate catalog with
  | Error (Nf2.Catalog.Recursive_reference _) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected Recursive_reference"

let test_catalog_self_cycle () =
  let a =
    Schema.relation ~name:"a" ~segment:"s" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "to_a" (Schema.Atomic (Schema.Ref "a")) ]
  in
  let catalog = Nf2.Catalog.create () in
  check_bool "add a" true (Result.is_ok (Nf2.Catalog.add catalog a));
  match Nf2.Catalog.validate catalog with
  | Error (Nf2.Catalog.Recursive_reference _) -> ()
  | Error _ | Ok () -> Alcotest.fail "expected self Recursive_reference"

let test_catalog_segments () =
  let catalog = Nf2.Catalog.create () in
  check_bool "add effectors" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.effectors_schema));
  check_bool "add cells" true
    (Result.is_ok (Nf2.Catalog.add catalog Workload.Figure1.cells_schema));
  check
    (Alcotest.list Alcotest.string)
    "segments" [ "seg1"; "seg2" ]
    (Nf2.Catalog.segments catalog)

(* -------------------------------------------------------------- Database *)

let test_database_figure1 () =
  let db = Workload.Figure1.database () in
  check_string "name" "db1" (Nf2.Database.name db);
  check_int "two relations" 2 (List.length (Nf2.Database.relations db));
  check_int "no dangling refs" 0
    (List.length (Nf2.Database.check_ref_integrity db));
  match Nf2.Database.deref db (Oid.make ~relation:"effectors" ~key:"e2") with
  | Some value ->
    check_bool "deref e2" true
      (Value.equal value (Workload.Figure1.effector ~key:"e2" ~tool:"t2"))
  | None -> Alcotest.fail "deref failed"

let test_database_dangling_ref () =
  let db = Nf2.Database.create "db1" in
  (match Nf2.Database.create_relation db Workload.Figure1.effectors_schema with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "create effectors");
  (match Nf2.Database.create_relation db Workload.Figure1.cells_schema with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "create cells");
  (match
     Nf2.Database.insert db "cells"
       (Workload.Figure1.cell ~key:"c1" ~objects:[]
          ~robots:
            [ Workload.Figure1.robot ~key:"r1" ~trajectory:"t"
                ~effectors:[ "missing" ] ])
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "insert cell");
  match Nf2.Database.check_ref_integrity db with
  | [ { Nf2.Database.dangling; _ } ] ->
    check_string "dangling target" "effectors/missing"
      (Oid.to_string dangling)
  | violations ->
    Alcotest.failf "expected one violation, got %d" (List.length violations)

let test_database_rejects_cycle () =
  let db = Nf2.Database.create "db1" in
  let a =
    Schema.relation ~name:"a" ~segment:"s" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "to_b" (Schema.Atomic (Schema.Ref "b")) ]
  in
  let b =
    Schema.relation ~name:"b" ~segment:"s" ~key:"id"
      [ Schema.field "id" (Schema.Atomic Schema.Str);
        Schema.field "to_a" (Schema.Atomic (Schema.Ref "a")) ]
  in
  check_bool "a ok" true (Result.is_ok (Nf2.Database.create_relation db a));
  match Nf2.Database.create_relation db b with
  | Error (Nf2.Database.Catalog_error (Nf2.Catalog.Recursive_reference _)) ->
    ()
  | Error _ | Ok _ -> Alcotest.fail "expected cycle rejection"

let test_database_unknown_relation () =
  let db = Nf2.Database.create "db1" in
  match
    Nf2.Database.insert db "nope" (Workload.Figure1.effector ~key:"x" ~tool:"t")
  with
  | Error (Nf2.Database.Unknown_relation "nope") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unknown_relation"

(* ------------------------------------------------------------ Statistics *)

let test_statistics_figure1 () =
  let db = Workload.Figure1.database ~c_objects:5 () in
  let cells_store = Option.get (Nf2.Database.relation db "cells") in
  let stats = Nf2.Statistics.compute cells_store in
  check_int "cardinality" 1 stats.Nf2.Statistics.cardinality;
  check (Alcotest.float 0.001) "avg c_objects" 5.0
    (Nf2.Statistics.avg_collection_size stats (Path.of_string "c_objects"));
  check (Alcotest.float 0.001) "avg robots" 2.0
    (Nf2.Statistics.avg_collection_size stats (Path.of_string "robots"));
  check (Alcotest.float 0.001) "avg effectors per robot" 2.0
    (Nf2.Statistics.avg_collection_size stats
       (Path.of_string "robots.effectors"))

let test_statistics_selectivity () =
  let db = Workload.Figure1.database ~c_objects:4 () in
  let cells_store = Option.get (Nf2.Database.relation db "cells") in
  let stats = Nf2.Statistics.compute cells_store in
  check (Alcotest.float 0.001) "key selectivity" 1.0
    (Nf2.Statistics.selectivity_eq stats (Path.of_string "cell_id"));
  check (Alcotest.float 0.001) "robot_id selectivity" 0.5
    (Nf2.Statistics.selectivity_eq stats (Path.of_string "robots.robot_id"));
  check (Alcotest.float 0.001) "unknown path defaults to 1" 1.0
    (Nf2.Statistics.selectivity_eq stats (Path.of_string "nope"))

let test_statistics_estimate_matching () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.default_manufacturing with cells = 10 }
  in
  let cells_store = Option.get (Nf2.Database.relation db "cells") in
  let stats = Nf2.Statistics.compute cells_store in
  check (Alcotest.float 0.001) "scan matches all" 10.0
    (Nf2.Statistics.estimate_matching stats None);
  check (Alcotest.float 0.001) "key predicate matches one" 1.0
    (Nf2.Statistics.estimate_matching stats (Some (Path.of_string "cell_id")))

let test_statistics_empty () =
  let stats = Nf2.Statistics.empty "void" in
  check (Alcotest.float 0.001) "empty estimate" 0.0
    (Nf2.Statistics.estimate_matching stats None);
  check (Alcotest.float 0.001) "empty collection default" 1.0
    (Nf2.Statistics.avg_collection_size stats (Path.of_string "x"))

(* ------------------------------------------------------------- Generator *)

let test_generator_manufacturing () =
  let parameters =
    { Workload.Generator.cells = 3; objects_per_cell = 4; robots_per_cell = 2;
      effectors = 5; effectors_per_robot = 2; seed = 42 }
  in
  let db = Workload.Generator.manufacturing parameters in
  let cells_store = Option.get (Nf2.Database.relation db "cells") in
  let effectors_store = Option.get (Nf2.Database.relation db "effectors") in
  check_int "cells" 3 (Nf2.Relation.cardinality cells_store);
  check_int "effectors" 5 (Nf2.Relation.cardinality effectors_store);
  check_int "ref integrity" 0
    (List.length (Nf2.Database.check_ref_integrity db))

let test_generator_deterministic () =
  let parameters = Workload.Generator.default_manufacturing in
  let db1 = Workload.Generator.manufacturing parameters in
  let db2 = Workload.Generator.manufacturing parameters in
  let dump db =
    List.map
      (fun store ->
        List.map
          (fun (key, value) -> (key, Format.asprintf "%a" Value.pp value))
          (Nf2.Relation.objects store))
      (Nf2.Database.relations db)
  in
  check_bool "same database for same seed" true (dump db1 = dump db2)

let test_generator_shared_effector () =
  let db = Workload.Generator.shared_effector ~robots:7 in
  check_int "ref integrity" 0
    (List.length (Nf2.Database.check_ref_integrity db));
  let cells_store = Option.get (Nf2.Database.relation db "cells") in
  let cell = Option.get (Nf2.Relation.find cells_store "c1") in
  check_int "7 refs to e1" 7 (List.length (Value.refs cell))

let test_generator_deep () =
  let parameters =
    { Workload.Generator.depth = 2; fanout = 2; objects = 3; share = true;
      parts = 4; seed = 5 }
  in
  let db = Workload.Generator.deep parameters in
  check_int "ref integrity" 0
    (List.length (Nf2.Database.check_ref_integrity db));
  let assemblies = Option.get (Nf2.Database.relation db "assemblies") in
  check_int "objects" 3 (Nf2.Relation.cardinality assemblies);
  let tree = Option.get (Nf2.Relation.find assemblies "a1") in
  (* depth 2, fanout 2: 4 leaves, each referencing one part *)
  check_int "leaf refs" 4 (List.length (Value.refs tree));
  let leaf_path = Workload.Generator.deep_leaf_path ~depth:2 in
  check_string "leaf path" "tree.children.children.payload"
    (Path.to_string leaf_path);
  check_int "leaf payloads" 4 (List.length (Value.project tree leaf_path))

let test_generator_deep_no_share () =
  let parameters =
    { Workload.Generator.depth = 1; fanout = 3; objects = 2; share = false;
      parts = 0; seed = 5 }
  in
  let db = Workload.Generator.deep parameters in
  check_bool "no parts relation" true (Nf2.Database.relation db "parts" = None);
  let assemblies = Option.get (Nf2.Database.relation db "assemblies") in
  let tree = Option.get (Nf2.Relation.find assemblies "a1") in
  check_int "no refs" 0 (List.length (Value.refs tree))

let () =
  Alcotest.run "nf2"
    [ ("path",
       [ Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
         Alcotest.test_case "root" `Quick test_path_root;
         Alcotest.test_case "child/parent" `Quick test_path_child_parent;
         Alcotest.test_case "prefix" `Quick test_path_prefix;
         Alcotest.test_case "compare" `Quick test_path_compare ]);
      ("oid",
       [ Alcotest.test_case "roundtrip" `Quick test_oid_roundtrip;
         Alcotest.test_case "invalid" `Quick test_oid_of_string_invalid;
         Alcotest.test_case "compare" `Quick test_oid_compare ]);
      ("schema",
       [ Alcotest.test_case "validate ok" `Quick test_schema_validate_ok;
         Alcotest.test_case "missing key" `Quick
           test_schema_validate_missing_key;
         Alcotest.test_case "key not atomic" `Quick
           test_schema_validate_key_not_atomic;
         Alcotest.test_case "key is ref" `Quick test_schema_validate_key_is_ref;
         Alcotest.test_case "duplicate field" `Quick
           test_schema_validate_duplicate_field;
         Alcotest.test_case "nested duplicate" `Quick
           test_schema_validate_nested_duplicate;
         Alcotest.test_case "empty tuple" `Quick
           test_schema_validate_empty_tuple;
         Alcotest.test_case "find_attr" `Quick test_schema_find_attr;
         Alcotest.test_case "reference paths" `Quick
           test_schema_reference_paths;
         Alcotest.test_case "attr paths" `Quick test_schema_attr_paths;
         Alcotest.test_case "depth" `Quick test_schema_depth ]);
      ("value",
       [ Alcotest.test_case "typecheck ok" `Quick test_value_typecheck_ok;
         Alcotest.test_case "wrong atom" `Quick test_value_typecheck_wrong_atom;
         Alcotest.test_case "missing field" `Quick
           test_value_typecheck_missing_field;
         Alcotest.test_case "extra field" `Quick
           test_value_typecheck_extra_field;
         Alcotest.test_case "field order" `Quick
           test_value_typecheck_field_order;
         Alcotest.test_case "ref target" `Quick test_value_typecheck_ref_target;
         Alcotest.test_case "object" `Quick test_value_typecheck_object;
         Alcotest.test_case "key_of_object" `Quick test_value_key_of_object;
         Alcotest.test_case "project" `Quick test_value_project;
         Alcotest.test_case "refs" `Quick test_value_refs;
         Alcotest.test_case "equal" `Quick test_value_equal ]);
      ("relation",
       [ Alcotest.test_case "insert/find" `Quick test_relation_insert_find;
         Alcotest.test_case "duplicate key" `Quick test_relation_duplicate_key;
         Alcotest.test_case "replace" `Quick test_relation_replace;
         Alcotest.test_case "delete" `Quick test_relation_delete;
         Alcotest.test_case "typecheck on insert" `Quick
           test_relation_typecheck_on_insert;
         Alcotest.test_case "keys sorted" `Quick test_relation_keys_sorted ]);
      ("catalog",
       [ Alcotest.test_case "shared" `Quick test_catalog_shared;
         Alcotest.test_case "duplicate" `Quick test_catalog_duplicate;
         Alcotest.test_case "unknown target" `Quick test_catalog_unknown_target;
         Alcotest.test_case "cycle" `Quick test_catalog_cycle;
         Alcotest.test_case "self cycle" `Quick test_catalog_self_cycle;
         Alcotest.test_case "segments" `Quick test_catalog_segments ]);
      ("database",
       [ Alcotest.test_case "figure1" `Quick test_database_figure1;
         Alcotest.test_case "dangling ref" `Quick test_database_dangling_ref;
         Alcotest.test_case "rejects cycle" `Quick test_database_rejects_cycle;
         Alcotest.test_case "unknown relation" `Quick
           test_database_unknown_relation ]);
      ("statistics",
       [ Alcotest.test_case "figure1" `Quick test_statistics_figure1;
         Alcotest.test_case "selectivity" `Quick test_statistics_selectivity;
         Alcotest.test_case "estimate matching" `Quick
           test_statistics_estimate_matching;
         Alcotest.test_case "empty" `Quick test_statistics_empty ]);
      ("generator",
       [ Alcotest.test_case "manufacturing" `Quick test_generator_manufacturing;
         Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
         Alcotest.test_case "shared effector" `Quick
           test_generator_shared_effector;
         Alcotest.test_case "deep" `Quick test_generator_deep;
         Alcotest.test_case "deep no share" `Quick test_generator_deep_no_share
       ]) ]
