(* Property-based tests (QCheck) on the core invariants of the system:
   protocol plan structure, conflict-freedom oracle, lock-table consistency,
   parser roundtrips, graph/value agreement, statistics sanity, escalation
   coverage preservation, checkout persistence, simulator accounting. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Oid = Nf2.Oid
module Path = Nf2.Path
module Value = Nf2.Value

let data_modes = [ Mode.S; Mode.X ]
let request_modes = [ Mode.IS; Mode.IX; Mode.S; Mode.X ]

(* A deterministic family of generated databases, selected by index. *)
let database_pool =
  lazy
    (Array.of_list
       [ Workload.Figure1.database ();
         Workload.Figure1.database ~c_objects:10 ();
         Workload.Generator.manufacturing
           { Workload.Generator.cells = 3; objects_per_cell = 5;
             robots_per_cell = 3; effectors = 4; effectors_per_robot = 2;
             seed = 13 };
         Workload.Generator.manufacturing
           { Workload.Generator.cells = 2; objects_per_cell = 2;
             robots_per_cell = 2; effectors = 2; effectors_per_robot = 2;
             seed = 5 };
         Workload.Generator.deep
           { Workload.Generator.depth = 2; fanout = 2; objects = 3;
             share = true; parts = 3; seed = 3 };
         Workload.Generator.deep
           { Workload.Generator.depth = 3; fanout = 2; objects = 2;
             share = false; parts = 0; seed = 9 } ])

let graph_pool =
  lazy (Array.map Graph.build (Lazy.force database_pool))

let pick_graph index =
  let pool = Lazy.force graph_pool in
  pool.(index mod Array.length pool)

let all_nodes graph =
  let nodes = Graph.fold (fun node accu -> Graph.id graph node :: accu) graph [] in
  let array = Array.of_list nodes in
  Array.sort Node_id.compare array;
  array

(* ------------------------------------------------------ plan invariants *)

let plan_case_gen =
  QCheck.Gen.(
    quad (int_range 0 100) (int_range 0 10_000)
      (oneofl request_modes) (int_range 0 3))

let arbitrary_plan_case =
  QCheck.make
    ~print:(fun (db, pick, mode, rule) ->
      Printf.sprintf "db=%d pick=%d mode=%s rule=%d" db pick
        (Mode.to_string mode) rule)
    plan_case_gen

let protocol_for graph rule_index =
  let table = Table.create () in
  let rule =
    if rule_index mod 2 = 0 then Protocol.Rule_4_prime else Protocol.Rule_4
  in
  Protocol.create ~rule graph table

let prop_plan_parents_before_children =
  QCheck.Test.make ~name:"plan lists parents before children" ~count:300
    arbitrary_plan_case
    (fun (db, pick, mode, rule) ->
      let graph = pick_graph db in
      let nodes = all_nodes graph in
      let target = nodes.(pick mod Array.length nodes) in
      let protocol = protocol_for graph rule in
      let steps = Protocol.plan protocol ~txn:1 target mode in
      let seen = Hashtbl.create 32 in
      List.for_all
        (fun { Protocol.node; _ } ->
          let parent_ok =
            match Node_id.parent node with
            | None -> true
            | Some parent -> Hashtbl.mem seen (Node_id.to_resource parent)
          in
          Hashtbl.replace seen (Node_id.to_resource node) ();
          parent_ok)
        steps)

let prop_plan_parent_modes_cover_intentions =
  QCheck.Test.make
    ~name:"every planned node's parent carries the needed intention"
    ~count:300 arbitrary_plan_case
    (fun (db, pick, mode, rule) ->
      let graph = pick_graph db in
      let nodes = all_nodes graph in
      let target = nodes.(pick mod Array.length nodes) in
      let protocol = protocol_for graph rule in
      let steps = Protocol.plan protocol ~txn:1 target mode in
      let planned = Hashtbl.create 32 in
      List.iter
        (fun { Protocol.node; mode; _ } ->
          Hashtbl.replace planned (Node_id.to_resource node) mode)
        steps;
      List.for_all
        (fun { Protocol.node; mode; _ } ->
          match Node_id.parent node with
          | None -> true
          | Some parent -> (
            match Hashtbl.find_opt planned (Node_id.to_resource parent) with
            | None -> false
            | Some parent_mode ->
              Mode.leq (Mode.intention_for mode) parent_mode))
        steps)

let prop_plan_covers_reachable_entry_points =
  QCheck.Test.make
    ~name:"downward propagation reaches every dependent entry point"
    ~count:300 arbitrary_plan_case
    (fun (db, pick, mode, rule) ->
      QCheck.assume (List.mem mode data_modes);
      let graph = pick_graph db in
      let nodes = all_nodes graph in
      let target = nodes.(pick mod Array.length nodes) in
      let protocol = protocol_for graph rule in
      let steps = Protocol.plan protocol ~txn:1 target mode in
      let planned = Hashtbl.create 32 in
      List.iter
        (fun { Protocol.node; mode; _ } ->
          Hashtbl.replace planned (Node_id.to_resource node) mode)
        steps;
      (* transitively collect reachable entry points *)
      let rec reachable accu node =
        List.fold_left
          (fun accu entry ->
            let key = Node_id.to_resource entry in
            if List.mem key accu then accu
            else reachable (key :: accu) entry)
          accu
          (List.map (Graph.id graph)
             (Colock.Units.entry_points_below graph (Graph.node_exn graph node)))
      in
      List.for_all
        (fun key ->
          match Hashtbl.find_opt planned key with
          | Some planned_mode -> Mode.grants_read planned_mode
          | None -> false)
        (reachable [] target))

let prop_plan_disjoint_is_system_r =
  QCheck.Test.make ~name:"disjoint data: plan is the System R chain"
    ~count:200
    (QCheck.make
       ~print:(fun (pick, mode) ->
         Printf.sprintf "pick=%d mode=%s" pick (Mode.to_string mode))
       QCheck.Gen.(pair (int_range 0 10_000) (oneofl request_modes)))
    (fun (pick, mode) ->
      let graph = pick_graph 5 (* the share=false deep database *) in
      let nodes = all_nodes graph in
      let target = nodes.(pick mod Array.length nodes) in
      let protocol = protocol_for graph 0 in
      let steps = Protocol.plan protocol ~txn:1 target mode in
      let expected =
        List.map
          (fun ancestor -> (ancestor, Mode.intention_for mode))
          (List.map (Graph.id graph)
             (Graph.ancestor_nodes graph (Graph.node_exn graph target)))
        @ [ (target, mode) ]
      in
      List.length steps = List.length expected
      && List.for_all2
           (fun { Protocol.node; mode; _ } (expected_node, expected_mode) ->
             Node_id.equal node expected_node && Mode.equal mode expected_mode)
           steps expected)

(* ----------------------------------------------------------- oracle *)

let scenario_gen =
  QCheck.Gen.(
    pair (int_range 0 100)
      (list_size (int_range 1 15)
         (triple (int_range 1 5) (int_range 0 10_000) (oneofl request_modes))))

let arbitrary_scenario =
  QCheck.make
    ~print:(fun (db, ops) ->
      Printf.sprintf "db=%d ops=%s" db
        (String.concat ";"
           (List.map
              (fun (txn, pick, mode) ->
                Printf.sprintf "T%d:%d:%s" txn pick (Mode.to_string mode))
              ops)))
    scenario_gen

let prop_no_hidden_conflicts_ever =
  QCheck.Test.make
    ~name:"granted locks never hide an effective conflict (any database)"
    ~count:150 arbitrary_scenario
    (fun (db, operations) ->
      let graph = pick_graph db in
      let nodes = all_nodes graph in
      let table = Table.create () in
      let rights = Authz.Rights.create () in
      let protocol = Protocol.create ~rights graph table in
      (* txn 2 may not modify the effector library (rule 4' diversity) *)
      Authz.Rights.revoke_modify rights ~txn:2 ~relation:"effectors";
      List.iter
        (fun (txn, pick, mode) ->
          let target = nodes.(pick mod Array.length nodes) in
          match
            Protocol.acquire protocol ~wait:false ~txn
              (Graph.node_exn graph target) mode
          with
          | Protocol.Acquired _ -> ()
          | Protocol.Blocked _ -> ())
        operations;
      let txns = [ 1; 2; 3; 4; 5 ] in
      Array.for_all
        (fun id ->
          let effective =
            List.map
              (fun txn ->
                Protocol.effective_mode protocol ~txn (Graph.node_exn graph id))
              txns
          in
          let writers =
            List.length (List.filter Mode.grants_write effective)
          in
          let readers = List.length (List.filter Mode.grants_read effective) in
          writers = 0 || (writers = 1 && readers = 1))
        nodes)

(* ------------------------------------------------------------ lock table *)

let table_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (triple (int_range 1 6) (int_range 0 7)
         (oneofl (Mode.NL :: request_modes @ [ Mode.SIX ]))))

let arbitrary_table_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (txn, res, mode) ->
             Printf.sprintf "T%d:r%d:%s" txn res (Mode.to_string mode))
           ops))
    table_ops_gen

let prop_granted_groups_compatible =
  QCheck.Test.make
    ~name:"lock table: granted groups stay pairwise compatible" ~count:300
    arbitrary_table_ops
    (fun operations ->
      let table = Table.create () in
      List.iter
        (fun (txn, res, mode) ->
          let resource = Printf.sprintf "r%d" res in
          (* mix requests and occasional releases *)
          if Mode.equal mode Mode.NL then
            ignore (Table.release_all table ~txn)
          else ignore (Table.request table ~txn ~resource mode))
        operations;
      List.for_all
        (fun resource ->
          let holders = Table.holders table ~resource in
          List.for_all
            (fun (txn_a, mode_a) ->
              List.for_all
                (fun (txn_b, mode_b) ->
                  txn_a = txn_b || Mode.compatible mode_a mode_b)
                holders)
            holders)
        (Table.resources table))

let prop_entry_count_consistent =
  QCheck.Test.make ~name:"lock table: entry count matches holders" ~count:300
    arbitrary_table_ops
    (fun operations ->
      let table = Table.create () in
      List.iter
        (fun (txn, res, mode) ->
          let resource = Printf.sprintf "r%d" res in
          if Mode.equal mode Mode.NL then ignore (Table.release_all table ~txn)
          else ignore (Table.request table ~txn ~resource mode))
        operations;
      let counted =
        List.fold_left
          (fun total resource ->
            total + List.length (Table.holders table ~resource))
          0 (Table.resources table)
      in
      Table.entry_count table = counted
      && Table.peak_entry_count table >= Table.entry_count table)

(* ---------------------------------------------------------------- parser *)

let ident_gen =
  QCheck.Gen.(
    let* first = oneofl [ "c"; "r"; "o"; "e"; "part"; "cell_id"; "x1" ] in
    return first)

let path_gen =
  QCheck.Gen.(
    let* steps = list_size (int_range 1 3) ident_gen in
    return (Path.of_list steps))

let literal_gen =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Query.Ast.L_str s) (oneofl [ "c1"; "r2"; "abc"; "" ]);
        map (fun i -> Query.Ast.L_int i) (int_range 0 9999);
        map (fun b -> Query.Ast.L_bool b) bool ])

let ast_gen =
  QCheck.Gen.(
    let* first_var = oneofl [ "c"; "q" ] in
    let* relation = oneofl [ "cells"; "effectors"; "parts" ] in
    let* extra_vars = int_range 0 2 in
    let vars =
      first_var :: List.init extra_vars (fun index -> Printf.sprintf "v%d" index)
    in
    let* bindings =
      let rec build accu = function
        | [] -> return (List.rev accu)
        | var :: rest ->
          let* binding =
            if accu = [] then
              return { Query.Ast.var; source = Query.Ast.From_relation relation }
            else
              let* base =
                oneofl (List.map (fun b -> b.Query.Ast.var) accu)
              in
              let* path = path_gen in
              return { Query.Ast.var; source = Query.Ast.From_path (base, path) }
          in
          build (binding :: accu) rest
      in
      build [] vars
    in
    let* select = oneofl vars in
    let* conditions =
      list_size (int_range 0 2)
        (let* var = oneofl vars in
         let* path = path_gen in
         let* value = literal_gen in
         return { Query.Ast.cond_var = var; cond_path = path; value })
    in
    let* clause =
      oneofl [ Query.Ast.For_read; Query.Ast.For_update; Query.Ast.For_delete ]
    in
    return { Query.Ast.select; bindings; where = conditions; clause })

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"parser: parse (pp ast) = ast" ~count:300
    (QCheck.make
       ~print:(fun ast -> Format.asprintf "%a" Query.Ast.pp ast)
       ast_gen)
    (fun ast ->
      (* string literals with quotes/newlines are out of the dialect *)
      let printable = Format.asprintf "%a" Query.Ast.pp ast in
      match Query.Parser.parse printable with
      | Ok reparsed -> reparsed = ast
      | Error _ -> false)

(* ------------------------------------------------- graph/value agreement *)

let prop_nodes_at_path_matches_projection =
  QCheck.Test.make
    ~name:"instance nodes at a path agree with value projection" ~count:200
    (QCheck.make
       ~print:(fun (db, pick) -> Printf.sprintf "db=%d pick=%d" db pick)
       QCheck.Gen.(pair (int_range 0 100) (int_range 0 1000)))
    (fun (db_index, pick) ->
      let pool = Lazy.force database_pool in
      let db = pool.(db_index mod Array.length pool) in
      let graph = pick_graph db_index in
      let stores = Nf2.Database.relations db in
      let store = List.nth stores (pick mod List.length stores) in
      let schema = Nf2.Relation.schema store in
      let paths = Nf2.Schema.attr_paths schema in
      QCheck.assume (paths <> []);
      let path = List.nth paths (pick mod List.length paths) in
      List.for_all
        (fun (key, value) ->
          let oid = Oid.make ~relation:(Nf2.Relation.name store) ~key in
          let node_count = List.length (Graph.nodes_at_path graph oid path) in
          let value_count = List.length (Value.project value path) in
          node_count = value_count)
        (Nf2.Relation.objects store))

(* ------------------------------------------------------------- statistics *)

let prop_statistics_sane =
  QCheck.Test.make ~name:"statistics: estimates stay within bounds" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100))
    (fun db_index ->
      let pool = Lazy.force database_pool in
      let db = pool.(db_index mod Array.length pool) in
      List.for_all
        (fun store ->
          let stats = Nf2.Statistics.compute store in
          let cardinality = float_of_int stats.Nf2.Statistics.cardinality in
          List.for_all
            (fun (_path, size) -> size >= 0.0)
            stats.Nf2.Statistics.collection_sizes
          && List.for_all
               (fun (_path, count) -> count >= 0)
               stats.Nf2.Statistics.distinct_counts
          && Nf2.Statistics.estimate_matching stats None <= cardinality +. 0.01
          && List.for_all
               (fun (path, _count) ->
                 let estimate =
                   Nf2.Statistics.estimate_matching stats (Some path)
                 in
                 estimate >= 0.0 && estimate <= cardinality +. 0.01)
               stats.Nf2.Statistics.distinct_counts)
        (Nf2.Database.relations db))

(* ------------------------------------------------------------- escalation *)

let prop_escalation_preserves_coverage =
  QCheck.Test.make
    ~name:"escalation: members stay effectively covered" ~count:100
    (QCheck.make
       ~print:(fun (members, threshold) ->
         Printf.sprintf "members=%d threshold=%d" members threshold)
       QCheck.Gen.(pair (int_range 2 20) (int_range 1 10)))
    (fun (members, threshold) ->
      let db = Workload.Figure1.database ~c_objects:members () in
      let graph = Graph.build db in
      let table = Table.create () in
      let protocol = Protocol.create graph table in
      let c1 = Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1")) in
      let holu = Option.get (Graph.member_node graph c1 "c_objects") in
      let member_nodes = Graph.children graph holu in
      List.iter
        (fun member ->
          match Protocol.acquire protocol ~txn:1 member Mode.S with
          | Protocol.Acquired _ -> ()
          | Protocol.Blocked _ -> ())
        member_nodes;
      let (_ : Colock.Escalation.escalation_result) =
        Colock.Escalation.maybe_escalate protocol ~txn:1 ~threshold
          ~parent:holu
      in
      List.for_all
        (fun member ->
          Mode.grants_read (Protocol.effective_mode protocol ~txn:1 member))
        member_nodes)

(* --------------------------------------------------------------- checkout *)

let prop_checkout_persistence_roundtrip =
  QCheck.Test.make
    ~name:"checkout: long locks survive save/restore exactly" ~count:50
    (QCheck.make
       ~print:(fun picks -> String.concat "," (List.map string_of_int picks))
       QCheck.Gen.(list_size (int_range 1 3) (int_range 0 100)))
    (fun picks ->
      let db = Workload.Figure1.database () in
      let graph = Graph.build db in
      let lock_file = Filename.temp_file "colock_prop_locks" ".txt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove lock_file with Sys_error _ -> ())
        (fun () ->
          let table = Table.create () in
          let protocol = Protocol.create graph table in
          let manager = Txn.Txn_manager.create protocol in
          let checkout = Txn.Checkout.create ~lock_file manager db in
          let txn = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long manager in
          let oids =
            [ Oid.make ~relation:"cells" ~key:"c1";
              Oid.make ~relation:"effectors" ~key:"e1";
              Oid.make ~relation:"effectors" ~key:"e3" ]
          in
          List.iter
            (fun pick ->
              let oid = List.nth oids (pick mod List.length oids) in
              let mode = if pick mod 2 = 0 then `Read else `Update in
              ignore (Txn.Checkout.check_out checkout txn oid ~mode))
            picks;
          let before =
            List.filter
              (fun (_resource, _mode, duration) -> duration = Table.Long)
              (Table.locks_of table ~txn:txn.Txn.Transaction.id)
          in
          Txn.Checkout.save_locks checkout;
          let table2 = Table.create () in
          let protocol2 = Protocol.create graph table2 in
          let manager2 = Txn.Txn_manager.create protocol2 in
          let checkout2 = Txn.Checkout.create ~lock_file manager2 db in
          let restored = Txn.Checkout.restore_locks checkout2 in
          let after =
            List.filter
              (fun (_resource, _mode, duration) -> duration = Table.Long)
              (Table.locks_of table2 ~txn:txn.Txn.Transaction.id)
          in
          restored = List.length before && before = after))

(* -------------------------------------------------------------- simulator *)

let prop_sim_accounting =
  QCheck.Test.make ~name:"simulator: accounting identities hold" ~count:60
    (QCheck.make
       ~print:(fun (jobs, read_pct, seed) ->
         Printf.sprintf "jobs=%d read=%d%% seed=%d" jobs read_pct seed)
       QCheck.Gen.(triple (int_range 1 25) (int_range 0 100) (int_range 0 999)))
    (fun (jobs, read_pct, seed) ->
      let db =
        Workload.Generator.manufacturing
          { Workload.Generator.default_manufacturing with cells = 3; seed = 7 }
      in
      let graph = Graph.build db in
      let mix =
        { Sim.Scenario.default_mix with
          jobs; read_fraction = float_of_int read_pct /. 100.0; seed }
      in
      let specs = Sim.Scenario.manufacturing_mix db graph mix in
      let table = Table.create () in
      let protocol = Protocol.create graph table in
      let sim_jobs =
        Sim.Scenario.compile graph (Sim.Scenario.Proposed protocol) specs
      in
      let metrics = Sim.Runner.run ~table sim_jobs in
      metrics.Sim.Metrics.committed + metrics.Sim.Metrics.gave_up = jobs
      && metrics.Sim.Metrics.total_response
         >= metrics.Sim.Metrics.committed * mix.Sim.Scenario.access_cost
      && metrics.Sim.Metrics.makespan >= mix.Sim.Scenario.access_cost
      && Table.entry_count table = 0)

(* --------------------------------------------------------- compiled graph *)

(* Fresh, mutable databases for the insert/delete properties: the shapes
   of [Generator.manufacturing] and [Generator.deep], plus nested libraries
   (common data that again contains common data). *)
let dml_database index =
  match index mod 3 with
  | 0 ->
    Workload.Generator.manufacturing
      { Workload.Generator.cells = 3; objects_per_cell = 2;
        robots_per_cell = 3; effectors = 4; effectors_per_robot = 2;
        seed = 13 }
  | 1 ->
    Workload.Generator.deep
      { Workload.Generator.depth = 2; fanout = 2; objects = 3; share = true;
        parts = 3; seed = 3 }
  | _ ->
    Workload.Generator.nested
      { Workload.Generator.levels = 3; per_level = 3; refs_per_object = 2;
        nested_seed = 5 }

let pick state list = List.nth list (Random.State.int state (List.length list))

(* Every reference re-pointed at a random live object of its relation, so
   inserts change which entry points a subtree reaches. *)
let rec retarget db state value =
  match value with
  | Value.Ref oid -> (
    let relation = Oid.relation oid in
    match Nf2.Database.relation db relation with
    | Some store when Nf2.Relation.cardinality store > 0 ->
      Value.ref_to ~relation ~key:(pick state (Nf2.Relation.keys store))
    | Some _ | None -> value)
  | Value.Tuple bindings ->
    Value.Tuple
      (List.map (fun (field, sub) -> (field, retarget db state sub)) bindings)
  | Value.Set members -> Value.Set (List.map (retarget db state) members)
  | Value.List members -> Value.List (List.map (retarget db state) members)
  | Value.Str _ | Value.Int _ | Value.Real _ | Value.Bool _ -> value

let id_like field =
  String.length field >= 3
  && String.equal (String.sub field (String.length field - 3) 3) "_id"

(* A value-level edit: string leaves that name no graph node get a suffix.
   Keys, references, members' "_id" fields and members without one (the
   graph names those by their first atomic field) stay as they are, so a
   fresh build of the edited database gives the same graph. *)
let rec restyle state value =
  match value with
  | Value.Tuple bindings ->
    Value.Tuple
      (List.map
         (fun (field, sub) ->
           match sub with
           | Value.Str text
             when (not (id_like field)) && Random.State.bool state ->
             (field, Value.Str (text ^ "'"))
           | _ -> (field, restyle state sub))
         bindings)
  | Value.Set members -> Value.Set (List.map (restyle_member state) members)
  | Value.List members -> Value.List (List.map (restyle_member state) members)
  | Value.Str _ | Value.Int _ | Value.Real _ | Value.Bool _ | Value.Ref _ ->
    value

and restyle_member state member =
  match member with
  | Value.Tuple bindings
    when List.exists
           (fun (field, sub) ->
             id_like field && Option.is_some (Value.render_atomic sub))
           bindings ->
    restyle state member
  | _ -> member

(* One write through [Colock.Store]: insert a re-pointed copy of a random
   object under a fresh key, delete a random object the graph lets go of (it
   refuses referenced ones), or restyle one in place. Returns the store's
   change, if the write was accepted. *)
let random_dml store state step =
  let db = Colock.Store.database store in
  let relation = pick state (Nf2.Database.relations db) in
  let schema = Nf2.Relation.schema relation in
  match Nf2.Relation.objects relation with
  | [] -> None
  | objects -> (
    let key, value = pick state objects in
    let oid = Oid.make ~relation:schema.Nf2.Schema.rel_name ~key in
    let written =
      match Random.State.int state 3 with
      | 0 ->
        let fresh = Printf.sprintf "%s_%d" key step in
        let value =
          match retarget db state value with
          | Value.Tuple bindings ->
            Value.Tuple
              (List.map
                 (fun (field, sub) ->
                   if String.equal field schema.Nf2.Schema.key then
                     (field, Value.Str fresh)
                   else (field, sub))
                 bindings)
          | other -> other
        in
        Colock.Store.insert store schema.Nf2.Schema.rel_name value
      | 1 -> Colock.Store.delete store oid
      | _ ->
        Result.map_error
          (fun db_error -> Colock.Store.Database db_error)
          (Colock.Store.replace store oid (restyle state value))
    in
    match written with
    | Ok change -> Some change
    | Error (Colock.Store.Graph _) -> None
    | Error (Colock.Store.Database db_error) ->
      failwith (Format.asprintf "%a" Nf2.Database.pp_error db_error))

(* ------------------------------------------------------ replacement check *)

(* One local edit somewhere in [value], rebuilt the way an update rebuilds
   an object: the spine down to the edit is fresh, everything beside it is
   shared with the original. The edit at the chosen spot is well-typed,
   mistyped, reshaped (tuple fields renamed, dropped, added or swapped) or
   length-changing (a collection member appended or dropped). *)
let rec local_edit db state value =
  let descend = Random.State.int state 3 > 0 in
  let pick_index length = Random.State.int state length in
  match value with
  | Value.Tuple bindings when descend && bindings <> [] ->
    let chosen = pick_index (List.length bindings) in
    Value.Tuple
      (List.mapi
         (fun index (name, sub) ->
           if index = chosen then (name, local_edit db state sub) else (name, sub))
         bindings)
  | (Value.Set members | Value.List members) when descend && members <> [] ->
    let chosen = pick_index (List.length members) in
    let members =
      List.mapi
        (fun index member ->
          if index = chosen then local_edit db state member else member)
        members
    in
    (match value with Value.Set _ -> Value.Set members | _ -> Value.List members)
  | _ -> (
    match Random.State.int state 4 with
    | 0 -> well_typed_edit db state value
    | 1 -> mistyped_edit value
    | 2 -> reshaped_edit state value
    | _ -> length_edit state value)

and well_typed_edit db state value =
  match value with
  | Value.Str text -> Value.Str (text ^ "'")
  | Value.Int number -> Value.Int (number + 1)
  | Value.Real number -> Value.Real (number +. 1.0)
  | Value.Bool flag -> Value.Bool (not flag)
  | Value.Ref oid -> (
    let relation = Oid.relation oid in
    match Nf2.Database.relation db relation with
    | Some store when Nf2.Relation.cardinality store > 0 ->
      Value.ref_to ~relation ~key:(pick state (Nf2.Relation.keys store))
    | Some _ | None -> value)
  | Value.Set members -> Value.Set (List.rev members)
  | Value.List members -> Value.List (List.rev members)
  | Value.Tuple _ -> local_edit db state value

and mistyped_edit value =
  match value with
  | Value.Str _ -> Value.Int 0
  | Value.Int _ | Value.Real _ | Value.Bool _ -> Value.Str "x"
  | Value.Ref oid -> Value.ref_to ~relation:"nowhere" ~key:(Oid.key oid)
  | Value.Set members -> Value.List members
  | Value.List members -> Value.Set members
  | Value.Tuple _ -> Value.Str "x"

and reshaped_edit state value =
  match value with
  | Value.Tuple ((name, sub) :: rest) -> (
    match Random.State.int state 4 with
    | 0 -> Value.Tuple ((name ^ "_", sub) :: rest)
    | 1 -> Value.Tuple (List.filteri (fun index _ -> index < List.length rest) ((name, sub) :: rest))
    | 2 -> Value.Tuple (((name, sub) :: rest) @ [ ("extra", Value.Str "") ])
    | _ -> (
      match rest with
      | second :: others -> Value.Tuple (second :: (name, sub) :: others)
      | [] -> Value.Tuple []))
  | Value.Tuple [] -> Value.Tuple [ ("extra", Value.Int 1) ]
  | other -> Value.Tuple [ ("wrapped", other) ]

and length_edit state value =
  match value with
  | Value.Set members | Value.List members ->
    let members =
      match members, Random.State.int state 3 with
      | first :: _, 0 -> members @ [ first ]
      | _ :: rest, 1 -> rest
      | _, _ -> members @ [ Value.Str "stray" ]
    in
    (match value with Value.Set _ -> Value.Set members | _ -> Value.List members)
  | other -> mistyped_edit other

let replacement_case =
  QCheck.make
    ~print:(fun (db, pick, seed, edits) ->
      Printf.sprintf "db=%d pick=%d seed=%d edits=%d" db pick seed edits)
    QCheck.Gen.(
      quad (int_range 0 100) (int_range 0 10_000) (int_range 0 1_000_000)
        (int_range 1 3))

let prop_replacement_check_is_full_check =
  QCheck.Test.make
    ~name:"replacement check returns what the full check returns" ~count:1000
    replacement_case
    (fun (db_index, pick, seed, edits) ->
      let pool = Lazy.force database_pool in
      let db = pool.(db_index mod Array.length pool) in
      let stores = Nf2.Database.relations db in
      let store = List.nth stores (pick mod List.length stores) in
      let schema = Nf2.Relation.schema store in
      let objects = Nf2.Relation.objects store in
      QCheck.assume (objects <> []);
      let _key, stored = List.nth objects (pick mod List.length objects) in
      let state = Random.State.make [| seed |] in
      let rec edit count value =
        if count = 0 then value else edit (count - 1) (local_edit db state value)
      in
      let value = edit edits stored in
      Value.typecheck_replacement schema ~stored value
      = Value.typecheck_object schema value)

let dml_case =
  QCheck.make
    ~print:(fun (db, seed, steps) ->
      Printf.sprintf "db=%d seed=%d steps=%d" db seed steps)
    QCheck.Gen.(triple (int_range 0 2) (int_range 0 9_999) (int_range 1 25))

let graph_nodes graph = Graph.fold (fun node accu -> node :: accu) graph []

(* The maintained graph against a fresh build of the database: the same
   nodes by path, with the same children, parent, kind, entry-point flag,
   references and referencers. *)
let equals_rebuild graph db =
  let rebuilt = Graph.build db in
  let ids graph nodes = List.map (Graph.id graph) nodes in
  let same_node (node : Graph.node) =
    let id = Graph.id graph node in
    match Graph.node rebuilt id with
    | None -> false
    | Some other ->
      let parent_id (graph, node) =
        Option.map (Graph.id graph) (Graph.parent_node graph node)
      in
      List.equal Node_id.equal
        (ids graph (Graph.children graph node))
        (ids rebuilt (Graph.children rebuilt other))
      && Bool.equal node.entry_point other.entry_point
      && Colock.Lockable.equal node.kind other.kind
      && List.equal Oid.equal node.refs_out other.refs_out
      && String.equal (Graph.resource graph node) (Node_id.to_resource id)
      && Option.equal Node_id.equal (parent_id (graph, node))
           (parent_id (rebuilt, other))
      && (match node.oid with
          | None -> true
          | Some oid ->
            List.equal Node_id.equal
              (ids graph (Graph.referencers graph oid))
              (ids rebuilt (Graph.referencers rebuilt oid)))
  in
  Graph.node_count graph = Graph.node_count rebuilt
  && List.for_all same_node (graph_nodes graph)

let prop_maintained_graph_equals_rebuild =
  QCheck.Test.make
    ~name:"inserts/deletes keep the graph equal to a fresh build" ~count:100
    dml_case
    (fun (db_index, seed, steps) ->
      let db = dml_database db_index in
      let graph = Graph.build db in
      let store = Colock.Store.create db graph in
      let state = Random.State.make [| seed |] in
      let resources =
        ref
          (List.map (Graph.resource graph) (graph_nodes graph))
      in
      for step = 1 to steps do
        match random_dml store state step with
        | Some (Colock.Store.Inserted { oid }) ->
          (* the inserted subtree, whose resources a later delete may drop *)
          let ancestor =
            Graph.id graph (Option.get (Graph.object_node graph oid))
          in
          resources :=
            List.filter_map
              (fun current ->
                if Node_id.is_ancestor ~ancestor (Graph.id graph current) then
                  Some (Graph.resource graph current)
                else None)
              (graph_nodes graph)
            @ !resources
        | Some (Colock.Store.Replaced _ | Colock.Store.Deleted _) | None -> ()
      done;
      let rebuilt = Graph.build db in
      let lu graph resource = Graph.lu_resolver graph resource in
      equals_rebuild graph db
      && List.for_all
           (fun resource -> lu graph resource = lu rebuilt resource)
           !resources)

(* Every relation's objects, in key order. *)
let database_dump db =
  List.concat_map
    (fun relation ->
      List.map
        (fun (key, value) -> (Nf2.Relation.name relation, key, value))
        (Nf2.Relation.objects relation))
    (Nf2.Database.relations db)

let prop_revert_restores =
  QCheck.Test.make
    ~name:"reverting store writes restores the database, indexes and graph"
    ~count:100 dml_case
    (fun (db_index, seed, steps) ->
      let db = dml_database db_index in
      (* an index on every atomic path the schemas allow *)
      let indexed =
        List.concat_map
          (fun relation ->
            let name = Nf2.Relation.name relation in
            List.filter_map
              (fun path ->
                match Nf2.Database.create_index db ~relation:name path with
                | Ok () -> Some (name, path)
                | Error _ -> None)
              (Nf2.Schema.attr_paths (Nf2.Relation.schema relation)))
          (Nf2.Database.relations db)
      in
      (* every atomic value an indexed path holds at some point: the probes *)
      let probes = Hashtbl.create 64 in
      let note_probes () =
        List.iter
          (fun (name, path) ->
            Nf2.Relation.fold
              (fun _key value () ->
                List.iter
                  (fun probe -> Hashtbl.replace probes (name, path, probe) ())
                  (Value.project value path))
              (Option.get (Nf2.Database.relation db name))
              ())
          indexed
      in
      note_probes ();
      let initial = database_dump db in
      let graph = Graph.build db in
      let store = Colock.Store.create db graph in
      let state = Random.State.make [| seed |] in
      let changes = ref [] in
      for step = 1 to steps do
        Option.iter
          (fun change ->
            changes := change :: !changes;
            note_probes ())
          (random_dml store state step)
      done;
      let reverted =
        List.for_all
          (fun change -> Result.is_ok (Colock.Store.revert store change))
          !changes
      in
      let indexes_fresh =
        Hashtbl.fold
          (fun (name, path, probe) () fresh ->
            let relation = Option.get (Nf2.Database.relation db name) in
            fresh
            && Nf2.Database.index_lookup db ~relation:name ~path probe
               = Some
                   (Nf2.Index.lookup
                      (Result.get_ok (Nf2.Index.build relation path))
                      probe))
          probes true
      in
      reverted
      && List.equal
           (fun (r1, k1, v1) (r2, k2, v2) ->
             String.equal r1 r2 && String.equal k1 k2 && Value.equal v1 v2)
           initial (database_dump db)
      && indexes_fresh
      && equals_rebuild graph db)

(* The planner as it stood before the graph was compiled, kept as the
   oracle: ancestors by hashed climbs over node ids, entry points by a walk,
   sort and dedup of the unit-local subtree on every call, and a plan
   builder keyed on node ids. *)
module Reference_plan = struct
  let ancestors graph id =
    let rec climb accu id =
      match Node_id.parent (Graph.id graph (Graph.node_exn graph id)) with
      | None -> accu
      | Some parent -> climb (parent :: accu) parent
    in
    climb [] id

  let entry_points_below graph id =
    let rec collect accu id' =
      let current = Graph.node_exn graph id' in
      if current.Graph.entry_point && not (Node_id.equal id' id) then accu
      else
        List.fold_left collect
          (List.rev_append current.Graph.refs_out accu)
          (List.map (Graph.id graph) (Graph.children graph current))
    in
    collect [] id
    |> List.sort_uniq Oid.compare
    |> List.filter_map (fun oid ->
           Option.map (Graph.id graph) (Graph.object_node graph oid))

  let add positions order node mode reason =
    match Hashtbl.find_opt positions node with
    | Some cell ->
      let first_node, first_mode, first_reason = !cell in
      let reason =
        match first_reason, reason with
        | Protocol.Requested, _ | _, Protocol.Requested -> Protocol.Requested
        | first, _ -> first
      in
      cell := (first_node, Mode.sup first_mode mode, reason)
    | None ->
      let cell = ref (node, mode, reason) in
      Hashtbl.replace positions node cell;
      order := cell :: !order

  let data_mode = function
    | Mode.X -> Mode.X
    | Mode.S | Mode.SIX -> Mode.S
    | Mode.NL | Mode.IS | Mode.IX -> Mode.NL

  let plan graph ~rule ~rights ~txn ~follow_references node mode =
    let positions = Hashtbl.create 32 and order = ref [] in
    let add = add positions order in
    List.iter
      (fun ancestor ->
        add ancestor (Mode.intention_for mode) Protocol.Ancestor_intention)
      (ancestors graph node);
    add node mode Protocol.Requested;
    let entry_mode entry data =
      match rule, data, (Graph.node_exn graph entry).Graph.relation with
      | Protocol.Rule_4_prime, Mode.X, Some relation
        when not (Authz.Rights.may_modify rights ~txn ~relation) ->
        Mode.S
      | _, _, _ -> data
    in
    let seen = Hashtbl.create 16 in
    let rec propagate_from node data =
      List.iter
        (fun entry ->
          let here = entry_mode entry data in
          let cached = Hashtbl.find_opt seen entry in
          match cached with
          | Some previous when Mode.leq here previous -> ()
          | Some _ | None ->
            let merged =
              match cached with
              | Some previous -> Mode.sup previous here
              | None -> here
            in
            Hashtbl.replace seen entry merged;
            List.iter
              (fun parent ->
                add parent (Mode.intention_for here)
                  Protocol.Upward_propagation)
              (ancestors graph entry);
            add entry here Protocol.Downward_propagation;
            propagate_from entry (data_mode here))
        (entry_points_below graph node)
    in
    if follow_references && not (Mode.equal (data_mode mode) Mode.NL) then
      propagate_from node (data_mode mode);
    List.rev_map (fun cell -> !cell) !order
end

let oracle_case =
  QCheck.make
    ~print:(fun ((db, seed, steps), requests) ->
      Printf.sprintf "db=%d seed=%d steps=%d requests=%d" db seed steps
        requests)
    QCheck.Gen.(
      pair
        (triple (int_range 0 2) (int_range 0 9_999) (int_range 1 15))
        (int_range 1 40))

let prop_compiled_plan_matches_reference =
  QCheck.Test.make
    ~name:"compiled plan equals the uncompiled planner, across inserts/deletes"
    ~count:100 oracle_case
    (fun ((db_index, seed, steps), requests) ->
      let db = dml_database db_index in
      let graph = Graph.build db in
      let state = Random.State.make [| seed |] in
      let rights = Authz.Rights.create () in
      List.iter
        (fun store ->
          Authz.Rights.set_relation_default rights
            ~relation:(Nf2.Relation.name store) (Random.State.bool state))
        (Nf2.Database.relations db);
      for txn = 1 to 3 do
        List.iter
          (fun store ->
            if Random.State.int state 4 = 0 then
              Authz.Rights.grant_modify rights ~txn
                ~relation:(Nf2.Relation.name store))
          (Nf2.Database.relations db)
      done;
      let rule =
        if Random.State.bool state then Protocol.Rule_4
        else Protocol.Rule_4_prime
      in
      let protocol = Protocol.create ~rule ~rights graph (Table.create ()) in
      let store = Colock.Store.create db graph in
      let agrees node =
        let mode = pick state [ Mode.IS; Mode.IX; Mode.S; Mode.SIX; Mode.X ] in
        let txn = 1 + Random.State.int state 3 in
        let follow_references = Random.State.int state 4 > 0 in
        let compiled =
          Protocol.plan protocol ~txn ~follow_references node mode
        in
        let expected =
          Reference_plan.plan graph ~rule ~rights ~txn ~follow_references node
            mode
        in
        List.length compiled = List.length expected
        && List.for_all2
             (fun (step : Protocol.step) (node, mode, reason) ->
               Node_id.equal step.node node
               && Mode.equal step.mode mode
               && step.reason = reason
               && String.equal step.resource (Node_id.to_resource step.node))
             compiled expected
      in
      let sample () =
        let all =
          Array.of_list
            (List.map (Graph.id graph) (graph_nodes graph))
        in
        List.init requests (fun _ ->
            all.(Random.State.int state (Array.length all)))
      in
      (* plan the upper levels and a sample (filling memos), change the
         graph, re-plan them where they survived plus a fresh sample: a
         stale memo would show. Inserts and deletes change the entry points
         below the relation, segment and database nodes. *)
      let upper =
        List.filter_map
          (fun node ->
            let id = Graph.id graph node in
            if Node_id.depth id <= 3 then Some id else None)
          (graph_nodes graph)
      in
      let planned = upper @ sample () in
      let before = List.for_all agrees planned in
      for step = 1 to steps do
        ignore (random_dml store state step : Colock.Store.change option)
      done;
      let survivors =
        List.filter (fun id -> Option.is_some (Graph.node graph id)) planned
      in
      before
      && List.for_all agrees survivors
      && List.for_all agrees (sample ()))

(* Plans stay linear in their size. S on the cells relation reaches every
   effector a robot references, so with 16,384 robots over 8,600 effectors
   its downward propagation locks over 8,000 distinct entry points, each
   after its intention chain. On a 2-vCPU host this plan of 8,604 steps took
   8 ms with the builder keyed by dense id and 0.69 s with one that found
   duplicates by scanning its steps: the 60 ms bound sits more than ten
   times below the quadratic builder and well above the linear one. *)
let test_large_plan_linear () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.cells = 2048; objects_per_cell = 1;
        robots_per_cell = 8; effectors = 8600; effectors_per_robot = 4;
        seed = 11 }
  in
  let graph = Graph.build db in
  let cells = Option.get (Graph.relation_node graph "cells") in
  let protocol = Protocol.create graph (Table.create ()) in
  let plan () = Protocol.plan_node protocol ~txn:1 cells Mode.S in
  let steps = plan () in
  let entry_points =
    List.length
      (List.filter
         (fun (step : Protocol.step) ->
           step.reason = Protocol.Downward_propagation)
         steps)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d entry points, at least 4,000" entry_points)
    true (entry_points >= 4000);
  let expected =
    Reference_plan.plan graph ~rule:Protocol.Rule_4_prime
      ~rights:(Authz.Rights.create ()) ~txn:1 ~follow_references:true
      (Graph.id graph cells) Mode.S
  in
  Alcotest.(check bool)
    "equals the uncompiled planner" true
    (List.length steps = List.length expected
    && List.for_all2
         (fun (step : Protocol.step) (node, mode, reason) ->
           Node_id.equal step.node node
           && Mode.equal step.mode mode
           && step.reason = reason)
         steps expected);
  (* the best of five runs, so one descheduled run cannot fail the test *)
  let best =
    List.fold_left min infinity
      (List.init 5 (fun _ ->
           let started = Unix.gettimeofday () in
           ignore (plan () : Protocol.step list);
           Unix.gettimeofday () -. started))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d steps planned in %.1f ms, under 60 ms"
       (List.length steps) (best *. 1e3))
    true (best < 0.060)

(* The statistics fold as it stood before the one-pass scan, kept as the
   oracle: a path map of member/instance totals and a path map of rendering
   sets, one lookup and one insertion per value. *)
module Reference_statistics = struct
  module Path_map = Map.Make (Nf2.Path)
  module String_set = Set.Make (String)

  let compute store =
    let counts = ref Path_map.empty and distincts = ref Path_map.empty in
    let record_collection path members =
      let members_before, instances_before =
        Option.value ~default:(0, 0) (Path_map.find_opt path !counts)
      in
      counts :=
        Path_map.add path (members_before + members, instances_before + 1) !counts
    in
    let record_atomic path rendering =
      let seen =
        Option.value ~default:String_set.empty (Path_map.find_opt path !distincts)
      in
      distincts := Path_map.add path (String_set.add rendering seen) !distincts
    in
    let rec walk path value =
      match value with
      | Value.Str _ | Value.Int _ | Value.Real _ | Value.Bool _ ->
        Option.iter (record_atomic path) (Value.render_atomic value)
      | Value.Ref oid -> record_atomic path (Oid.to_string oid)
      | Value.Set members | Value.List members ->
        record_collection path (List.length members);
        List.iter (walk path) members
      | Value.Tuple bindings ->
        List.iter (fun (field, sub) -> walk (Nf2.Path.child path field) sub) bindings
    in
    let cardinality =
      Nf2.Relation.fold (fun _key value seen -> walk Nf2.Path.root value; seen + 1) store 0
    in
    { Nf2.Statistics.relation = Nf2.Relation.name store; cardinality;
      collection_sizes =
        List.map
          (fun (path, (members, instances)) ->
            (path, float_of_int members /. float_of_int (max 1 instances)))
          (Path_map.bindings !counts);
      distinct_counts =
        List.map
          (fun (path, seen) -> (path, String_set.cardinal seen))
          (Path_map.bindings !distincts) }
end

let test_statistics_match_reference () =
  let disjoint_shape =
    Workload.Generator.manufacturing
      { Workload.Generator.cells = 16; objects_per_cell = 20;
        robots_per_cell = 4; effectors = 64; effectors_per_robot = 2;
        seed = 7 }
  in
  List.iter
    (fun db ->
      List.iter
        (fun store ->
          let expected = Reference_statistics.compute store in
          let actual = Nf2.Statistics.compute store in
          if actual <> expected then
            Alcotest.failf "statistics of %s differ:@ %s@ vs@ %s"
              (Nf2.Relation.name store)
              (Format.asprintf "%a" Nf2.Statistics.pp actual)
              (Format.asprintf "%a" Nf2.Statistics.pp expected))
        (Nf2.Database.relations db))
    (disjoint_shape :: Array.to_list (Lazy.force database_pool))

let () =
  Alcotest.run "properties"
    [ ("plan",
       List.map QCheck_alcotest.to_alcotest
         [ prop_plan_parents_before_children;
           prop_plan_parent_modes_cover_intentions;
           prop_plan_covers_reachable_entry_points;
           prop_plan_disjoint_is_system_r ]);
      ("oracle",
       List.map QCheck_alcotest.to_alcotest [ prop_no_hidden_conflicts_ever ]);
      ("lock_table",
       List.map QCheck_alcotest.to_alcotest
         [ prop_granted_groups_compatible; prop_entry_count_consistent ]);
      ("parser",
       List.map QCheck_alcotest.to_alcotest [ prop_parser_roundtrip ]);
      ("graph",
       List.map QCheck_alcotest.to_alcotest
         [ prop_nodes_at_path_matches_projection;
           prop_maintained_graph_equals_rebuild;
           prop_revert_restores ]);
      ("compiled plan",
       Alcotest.test_case "large plans stay linear" `Quick
         test_large_plan_linear
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_compiled_plan_matches_reference ]);
      ("replacement check",
       List.map QCheck_alcotest.to_alcotest
         [ prop_replacement_check_is_full_check ]);
      ("statistics",
       Alcotest.test_case "one pass equals the fold" `Quick
         test_statistics_match_reference
       :: List.map QCheck_alcotest.to_alcotest [ prop_statistics_sane ]);
      ("escalation",
       List.map QCheck_alcotest.to_alcotest
         [ prop_escalation_preserves_coverage ]);
      ("checkout",
       List.map QCheck_alcotest.to_alcotest
         [ prop_checkout_persistence_roundtrip ]);
      ("simulator",
       List.map QCheck_alcotest.to_alcotest [ prop_sim_accounting ]) ]
