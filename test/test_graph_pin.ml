(* Pins what the instance graph and every planner make of a fixed set of
   catalogs: for each node, its identity, shape, references and lockable-unit
   metadata, and the lock plans of the proposed protocol (rules 4 and 4')
   and of the baselines. Each catalog's dump is reduced to one digest per
   part; a change to the graph's storage or to a planner that moves any of
   it fails here. The digests are never edited. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol

(* The catalogs of test_props's database_pool, then a scenario catalog with
   a shared effector library. *)
let catalogs () =
  [ ("figure1", Workload.Figure1.database ());
    ("figure1-10", Workload.Figure1.database ~c_objects:10 ());
    ( "manufacturing-13",
      Workload.Generator.manufacturing
        { Workload.Generator.cells = 3; objects_per_cell = 5;
          robots_per_cell = 3; effectors = 4; effectors_per_robot = 2;
          seed = 13 } );
    ( "manufacturing-5",
      Workload.Generator.manufacturing
        { Workload.Generator.cells = 2; objects_per_cell = 2;
          robots_per_cell = 2; effectors = 2; effectors_per_robot = 2;
          seed = 5 } );
    ( "deep-shared",
      Workload.Generator.deep
        { Workload.Generator.depth = 2; fanout = 2; objects = 3; share = true;
          parts = 3; seed = 3 } );
    ( "deep-private",
      Workload.Generator.deep
        { Workload.Generator.depth = 3; fanout = 2; objects = 2;
          share = false; parts = 0; seed = 9 } );
    ( "dsl-library",
      match
        Workload.Dsl.parse
          "scenario pin\n\
           catalog cells=3 objects=4 robots=3 effectors=4 refs=2\n\
           seed 7\n"
      with
      | Ok dsl -> Workload.Dsl.database dsl
      | Error message -> failwith message ) ]

let oids oids = String.concat "," (List.map Nf2.Oid.to_string oids)

let ids graph nodes =
  String.concat ","
    (List.map (fun node -> Node_id.to_resource (Graph.id graph node)) nodes)

let lu graph resource =
  match Graph.lu_of_resource graph resource with
  | Some { Obs.Event.lu_kind; lu_depth } -> Printf.sprintf "%s@%d" lu_kind lu_depth
  | None -> "-"

let sorted_nodes graph =
  Graph.fold (fun node accu -> node :: accu) graph []
  |> List.sort (fun a b -> Node_id.compare (Graph.id graph a) (Graph.id graph b))

let node_dump graph =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (node : Graph.node) ->
      let parent =
        match Graph.parent_node graph node with
        | Some parent -> Node_id.to_resource (Graph.id graph parent)
        | None -> "-"
      in
      let referencers =
        match node.oid with
        | Some oid -> ids graph (Graph.referencers graph oid)
        | None -> "-"
      in
      let resource = Graph.resource graph node in
      Printf.bprintf buffer "%s|%s|%s|%b|%s|%s|%s|%s|%s|%s\n"
        (Node_id.to_resource (Graph.id graph node)) resource
        (Colock.Lockable.to_string node.kind) node.entry_point parent
        (ids graph (Graph.children graph node)) (oids node.refs_out) referencers
        (ids graph (Graph.entry_points_below graph node))
        (lu graph resource))
    (sorted_nodes graph);
  Buffer.contents buffer

let requests buffer label requests =
  Printf.bprintf buffer "  %s:" label;
  List.iter
    (fun { Baselines.Technique.node; mode; resource } ->
      Printf.bprintf buffer " %s=%s(%s)" (Node_id.to_resource node)
        (Mode.to_string mode) resource)
    requests;
  Buffer.add_char buffer '\n'

let plan_dump db graph =
  let read_only = Authz.Rights.create () in
  List.iter
    (fun relation ->
      if Nf2.Catalog.is_shared (Nf2.Database.catalog db) relation then
        Authz.Rights.set_relation_default read_only ~relation false)
    (List.map Nf2.Relation.name (Nf2.Database.relations db));
  let protocols =
    [ ("rule4", Protocol.create ~rule:Protocol.Rule_4 graph (Table.create ()));
      ( "rule4'",
        Protocol.create ~rule:Protocol.Rule_4_prime ~rights:read_only graph
          (Table.create ()) ) ]
  in
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (node : Graph.node) ->
      let id = Graph.id graph node in
      Printf.bprintf buffer "%s\n" (Node_id.to_resource id);
      List.iter
        (fun (rule, protocol) ->
          List.iter
            (fun mode ->
              Printf.bprintf buffer "  %s %s:" rule (Mode.to_string mode);
              List.iter
                (fun (step : Protocol.step) ->
                  Printf.bprintf buffer " %s" (Format.asprintf "%a" Protocol.pp_step step);
                  Printf.bprintf buffer "[%s]" step.resource)
                (Protocol.plan protocol ~txn:1 id mode);
              Buffer.add_char buffer '\n')
            Mode.all)
        protocols;
      List.iter
        (fun mode ->
          let name = Mode.to_string mode in
          requests buffer ("with_ancestors " ^ name)
            (Baselines.Technique.merge graph
               (Baselines.Technique.with_ancestors graph node mode));
          requests buffer ("tuple " ^ name)
            (Baselines.Tuple_level.plan_node graph node mode);
          match node.oid with
          | Some oid ->
            requests buffer ("whole " ^ name)
              (Baselines.Whole_object.plan graph ~oid mode)
          | None -> ())
        [ Mode.S; Mode.X ])
    (sorted_nodes graph);
  Buffer.contents buffer

let pinned =
  [ ("figure1",
     ("95825ab73569712040cf2cad03a7c7a0",
      "6c71d49713b04bdbcd9715e1f1abeca9"));
    ("figure1-10",
     ("5f3f4f788ae4deda4c9ce0b792879e8c",
      "c6c18b1db2d2224b17001c4913c094a7"));
    ("manufacturing-13",
     ("57476fbc1123a27244af2862e431dc77",
      "256b291cf017c2162a0944495f376289"));
    ("manufacturing-5",
     ("99faf42190337cafe626a67dbf340ce5",
      "d9b72d017524fbd19c7a09e2d342694a"));
    ("deep-shared",
     ("117a3c49fa2885c9b8b4c790e004fb71",
      "0e8043814e735bdc1eeddab75c88c1b7"));
    ("deep-private",
     ("c06ffff1a64c39c1d915c23662515fd9",
      "411010dc915c1ea27cf6cb018755a260"));
    ("dsl-library",
     ("9d0740fb84ea2569003b6f84b315c7db",
      "af52c1ab0e305c68d2ce995594efe665")) ]

let test_catalog name db () =
  let graph = Graph.build db in
  let nodes_digest = Digest.to_hex (Digest.string (node_dump graph)) in
  let plans_digest = Digest.to_hex (Digest.string (plan_dump db graph)) in
  let nodes_pin, plans_pin = List.assoc name pinned in
  Alcotest.(check string) "nodes" nodes_pin nodes_digest;
  Alcotest.(check string) "plans" plans_pin plans_digest

let () =
  Alcotest.run "graph_pin"
    [ ( "digests",
        List.map
          (fun (name, db) ->
            Alcotest.test_case name `Quick (test_catalog name db))
          (catalogs ()) ) ]
