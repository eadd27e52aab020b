(* Tests for transitive behaviour on nested common data — "common data may
   again contain common data" (paper §2): products -> lib1 -> lib2 -> lib3.
   Downward propagation must cross superunit boundaries transitively; rule 4'
   weakening must be sticky below a non-modifiable level. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Oid = Nf2.Oid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  db : Nf2.Database.t;
  graph : Graph.t;
  table : Table.t;
  rights : Authz.Rights.t;
  protocol : Protocol.t;
}

let make_env ?(rule = Protocol.Rule_4) () =
  let db = Workload.Generator.nested Workload.Generator.default_nested in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Protocol.create ~rule ~rights graph table in
  { db; graph; table; rights; protocol }

let object_node env ~relation ~key =
  Option.get (Graph.object_node env.graph (Oid.make ~relation ~key))

let plan_modes env ~txn node mode =
  List.map
    (fun { Protocol.node; mode; _ } -> (Node_id.to_resource node, mode))
    (Protocol.plan_node env.protocol ~txn node mode)

let planned_mode plan prefix =
  List.filter_map
    (fun (resource, mode) ->
      let length = String.length prefix in
      if String.length resource >= length && String.sub resource 0 length = prefix
      then Some mode
      else None)
    plan

(* ----------------------------------------------------------------- tests *)

let test_database_shape () =
  let env = make_env () in
  let catalog = Nf2.Database.catalog env.db in
  Alcotest.(check (list string))
    "shared relations" [ "lib1"; "lib2"; "lib3" ]
    (Nf2.Catalog.shared_relations catalog);
  check_int "no dangling refs" 0
    (List.length (Nf2.Database.check_ref_integrity env.db))

let test_entry_points_at_every_level () =
  let env = make_env () in
  List.iter
    (fun relation ->
      let node = object_node env ~relation ~key:(relation ^ "_1") in
      check_bool (relation ^ " objects are entry points") true
        node.Graph.entry_point)
    [ "lib1"; "lib2"; "lib3" ];
  let product = object_node env ~relation:"products" ~key:"prod1" in
  check_bool "products are not entry points" false product.Graph.entry_point

let test_transitive_propagation_rule4 () =
  let env = make_env ~rule:Protocol.Rule_4 () in
  let product = object_node env ~relation:"products" ~key:"prod1" in
  let plan = plan_modes env ~txn:1 product Mode.X in
  (* the plan must place X on objects of every level reachable from prod1 *)
  let levels_covered =
    List.filter
      (fun level ->
        List.exists (Mode.equal Mode.X)
          (planned_mode plan (Printf.sprintf "db1/seg_lib%d/lib%d/lib%d_" level level level)))
      [ 1; 2; 3 ]
  in
  check_int "X propagated into all three library levels" 3
    (List.length levels_covered);
  (* each library relation chain is intention-locked (upward propagation) *)
  List.iter
    (fun level ->
      let relation_resource = Printf.sprintf "db1/seg_lib%d/lib%d" level level in
      check_bool
        (Printf.sprintf "lib%d relation intention-locked" level)
        true
        (List.exists
           (fun (resource, mode) ->
             String.equal resource relation_resource
             && Mode.leq Mode.IX mode)
           plan))
    [ 1; 2; 3 ]

let test_rule4_prime_weakening_is_sticky () =
  (* lib2 is read-only for T1: X propagation weakens to S at lib2 and the
     lib3 entries below get S as well — even though lib3 is modifiable. *)
  let env = make_env ~rule:Protocol.Rule_4_prime () in
  Authz.Rights.revoke_modify env.rights ~txn:1 ~relation:"lib2";
  let product = object_node env ~relation:"products" ~key:"prod1" in
  let plan = plan_modes env ~txn:1 product Mode.X in
  let lib1_modes = planned_mode plan "db1/seg_lib1/lib1/lib1_" in
  let lib2_modes = planned_mode plan "db1/seg_lib2/lib2/lib2_" in
  let lib3_modes = planned_mode plan "db1/seg_lib3/lib3/lib3_" in
  check_bool "lib1 entries X (modifiable)" true
    (lib1_modes <> [] && List.for_all (Mode.equal Mode.X) lib1_modes);
  check_bool "lib2 entries weakened to S" true
    (lib2_modes <> [] && List.for_all (Mode.equal Mode.S) lib2_modes);
  check_bool "lib3 entries stay S below a read-only level" true
    (lib3_modes <> [] && List.for_all (Mode.equal Mode.S) lib3_modes)

let test_mid_level_direct_access () =
  (* Direct X on a lib2 item: upward propagation inside its superunit,
     downward propagation into lib3. *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let item = object_node env ~relation:"lib2" ~key:"lib2_1" in
  match Protocol.acquire env.protocol ~wait:false ~txn:1 item Mode.X with
  | Protocol.Blocked _ -> Alcotest.fail "uncontended acquire"
  | Protocol.Acquired _ ->
    check_bool "lib2 relation IX" true
      (Mode.equal (Table.held env.table ~txn:1 ~resource:"db1/seg_lib2/lib2") Mode.IX);
    let lib3_locks =
      List.filter
        (fun (resource, _mode, _duration) ->
          String.length resource > 17
          && String.equal (String.sub resource 0 17) "db1/seg_lib3/lib3")
        (Table.locks_of env.table ~txn:1)
    in
    check_bool "lib3 entries locked via lib2" true
      (List.exists
         (fun (_resource, mode, _duration) -> Mode.equal mode Mode.X)
         lib3_locks)

let test_reader_blocks_deep_writer () =
  (* T1 reads a product (S propagates to its transitive components); T2 then
     tries to X a lib3 item that T1's closure covers: conflict detected. *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let product = object_node env ~relation:"products" ~key:"prod1" in
  (match Protocol.acquire env.protocol ~wait:false ~txn:1 product Mode.S with
   | Protocol.Acquired _ -> ()
   | Protocol.Blocked _ -> Alcotest.fail "reader should acquire");
  (* find a lib3 entry T1 covers *)
  let covered_lib3 =
    List.filter_map
      (fun (resource, mode, _duration) ->
        if
          Mode.equal mode Mode.S
          && String.length resource > 18
          && String.equal (String.sub resource 0 17) "db1/seg_lib3/lib3"
        then Some resource
        else None)
      (Table.locks_of env.table ~txn:1)
  in
  match covered_lib3 with
  | [] -> Alcotest.fail "expected S locks on lib3 entries"
  | resource :: _ -> (
    let node = Option.get (Graph.node_of_resource env.graph resource) in
    match Protocol.acquire env.protocol ~wait:false ~txn:2 node Mode.X with
    | Protocol.Blocked { blockers; _ } ->
      Alcotest.(check (list int)) "blocked by the reader" [ 1 ] blockers
    | Protocol.Acquired _ ->
      Alcotest.fail "deep component write must see the reader")

let test_no_hidden_conflicts_on_nested () =
  (* Two product updaters whose part closures overlap somewhere below. *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let outcomes =
    List.map
      (fun (txn, key) ->
        let product = object_node env ~relation:"products" ~key in
        match Protocol.acquire env.protocol ~wait:false ~txn product Mode.X with
        | Protocol.Acquired _ -> Some txn
        | Protocol.Blocked _ ->
          let (_ : Table.grant list) = Table.release_all env.table ~txn in
          None)
      [ (1, "prod1"); (2, "prod2"); (3, "prod3") ]
  in
  let winners = List.filter_map Fun.id outcomes in
  let conflicts =
    Baselines.Sysr_dag.hidden_conflicts ~rights:env.rights env.graph env.table
      ~txns:winners
  in
  check_int "no hidden conflicts among winners" 0 (List.length conflicts)

let test_nested_checkout_closure () =
  (* Whole-object check-out of a product under the whole-object baseline
     must follow the reference closure through all levels. *)
  let env = make_env () in
  let prod1 = Oid.make ~relation:"products" ~key:"prod1" in
  let plan = Baselines.Whole_object.plan env.graph ~oid:prod1 Mode.S in
  let touches prefix =
    List.exists
      (fun { Baselines.Technique.node; _ } ->
        let resource = Node_id.to_resource node in
        String.length resource >= String.length prefix
        && String.equal (String.sub resource 0 (String.length prefix)) prefix)
      plan
  in
  check_bool "closure reaches lib1" true (touches "db1/seg_lib1/lib1/");
  check_bool "closure reaches lib3" true (touches "db1/seg_lib3/lib3/")

let () =
  Alcotest.run "nested"
    [ ("nested_common_data",
       [ Alcotest.test_case "database shape" `Quick test_database_shape;
         Alcotest.test_case "entry points at every level" `Quick
           test_entry_points_at_every_level;
         Alcotest.test_case "transitive propagation (rule 4)" `Quick
           test_transitive_propagation_rule4;
         Alcotest.test_case "rule 4' weakening is sticky" `Quick
           test_rule4_prime_weakening_is_sticky;
         Alcotest.test_case "mid-level direct access" `Quick
           test_mid_level_direct_access;
         Alcotest.test_case "reader blocks deep writer" `Quick
           test_reader_blocks_deep_writer;
         Alcotest.test_case "no hidden conflicts" `Quick
           test_no_hidden_conflicts_on_nested;
         Alcotest.test_case "whole-object closure" `Quick
           test_nested_checkout_closure ]) ]
