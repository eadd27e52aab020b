module Path = Nf2.Path
module Value = Nf2.Value
module Oid = Nf2.Oid
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol
module Store = Colock.Store
module Mode = Lockmgr.Lock_mode

type t = {
  db : Nf2.Database.t;
  store : Store.t;
  threshold : int;
  protocol : Protocol.t;
  stats : (string * Nf2.Statistics.t) list;
  mutable write_hook : Lockmgr.Lock_table.txn_id -> Store.change -> unit;
}

let create ?(threshold = 16) db protocol =
  let stats store = (Nf2.Relation.name store, Nf2.Statistics.compute store) in
  { db; store = Store.create db (Protocol.graph protocol); threshold;
    protocol; stats = List.map stats (Nf2.Database.relations db);
    write_hook = (fun _txn _change -> ()) }

let set_write_hook executor hook = executor.write_hook <- hook

(* A store write made for [txn]: the hook sees its change. *)
let record executor ~txn result =
  Result.map (fun change -> executor.write_hook txn change) result

let database executor = executor.db
let protocol executor = executor.protocol

let stats_for executor relation =
  match List.assoc_opt relation executor.stats with
  | Some stats -> stats
  | None -> Nf2.Statistics.empty relation

type row = { oid : Oid.t; node : Graph.node; value : Value.t }

type result_set = {
  rows : row list;
  plan : Colock.Query_graph.t;
  locks_requested : int;
  used_index : bool;
}

type error =
  | Parse_error of Parser.error
  | Analysis_error of Analyzer.error
  | Blocked of {
      node : Node_id.t;
      blockers : Lockmgr.Lock_table.txn_id list;
      waiting : bool;
    }
  | Database_error of Nf2.Database.error
  | Graph_error of string
  | Victim

let pp_error formatter = function
  | Parse_error parse_error -> Parser.pp_error formatter parse_error
  | Analysis_error analysis_error -> Analyzer.pp_error formatter analysis_error
  | Blocked { node; blockers; waiting } ->
    Format.fprintf formatter "blocked on %a by %s%s" Node_id.pp node
      (String.concat ", "
         (List.map (Printf.sprintf "T%d") blockers))
      (if waiting then " (queued)" else "")
  | Database_error db_error -> Nf2.Database.pp_error formatter db_error
  | Graph_error message -> Format.pp_print_string formatter message
  | Victim -> Format.pp_print_string formatter "aborted by the transaction engine"

let store_error = function
  | Store.Database db_error -> Database_error db_error
  | Store.Graph message -> Graph_error message

let revert executor change =
  Result.map_error store_error (Store.revert executor.store change)

(* Walk instance nodes and values in lockstep.  Instance children of a HoLU
   were built in member order, so positional pairing is exact. *)
let rec resolve_pairs graph ((node : Graph.node), value) steps =
  match steps with
  | [] -> [ (node, value) ]
  | step :: rest -> (
    match node.kind, value with
    | Colock.Lockable.Helu, Value.Tuple bindings -> (
      match List.assoc_opt step bindings, Graph.member_node graph node step with
      | Some sub, Some child -> resolve_pairs graph (child, sub) rest
      | None, _ | _, None -> [])
    | Colock.Lockable.Holu, (Value.Set members | Value.List members) ->
      List.concat
        (List.map2
           (fun child member -> resolve_pairs graph (child, member) steps)
           (Graph.children graph node) members)
    | (Colock.Lockable.Blu | Colock.Lockable.Helu | Colock.Lockable.Holu), _ ->
      [])

(* Existential semantics: a value satisfies the conditions if each one is
   met by at least one value its path reaches. The literals were converted
   to values once per statement. *)
let satisfies conditions value =
  List.for_all
    (fun (path, literal) ->
      List.exists (Value.equal literal) (Value.project value path))
    conditions

(* Conditions strictly below the target path, re-rooted at the member. *)
let member_conditions target conditions =
  List.filter_map
    (fun (path, literal) ->
      if
        Path.is_prefix ~prefix:target path
        && Path.length path > Path.length target
      then
        let relative =
          Path.of_list
            (let rec drop count steps =
               if count = 0 then steps
               else match steps with [] -> [] | _ :: rest -> drop (count - 1) rest
             in
             drop (Path.length target) (Path.to_list path))
        in
        Some (relative, literal)
      else None)
    conditions

(* Adds to [rows] (most recent first) the object's members of the
   collections at [path] that satisfy [conditions], pairing each instance
   node with its member in one pass; for [path = root] the object itself is
   the single member. *)
let add_rows graph ~oid ~conditions path object_node object_value rows =
  let add node value rows =
    if satisfies conditions value then { oid; node; value } :: rows else rows
  in
  let rec add_members rows children members =
    match children, members with
    | [], [] -> rows
    | child :: children, member :: members ->
      add_members (add child member rows) children members
    | [], _ :: _ | _ :: _, [] ->
      invalid_arg "Executor: a collection and its instance nodes differ"
  in
  if Path.equal path Path.root then add object_node object_value rows
  else
    List.fold_left
      (fun rows ((holu : Graph.node), holu_value) ->
        match holu.kind, holu_value with
        | Colock.Lockable.Holu, (Value.Set members | Value.List members) ->
          add_members rows (Graph.children graph holu) members
        | (Colock.Lockable.Blu | Colock.Lockable.Helu | Colock.Lockable.Holu), _
          ->
          (* selecting from a non-collection path yields the value itself *)
          add holu holu_value rows)
      rows
      (resolve_pairs graph (object_node, object_value) (Path.to_list path))

type lock_target = { lt_node : Graph.node; lt_mode : Mode.t }

exception Blocked_exception of {
  node : Node_id.t;
  blockers : Lockmgr.Lock_table.txn_id list;
  waiting : bool;
}

let acquire_all executor ~txn ~wait targets =
  List.iter
    (fun { lt_node; lt_mode } ->
      match Protocol.acquire executor.protocol ~txn ~wait lt_node lt_mode with
      | Protocol.Acquired _ -> ()
      | Protocol.Blocked { step; blockers; _ } ->
        raise
          (Blocked_exception
             { node = step.Protocol.node; blockers; waiting = wait }))
    targets

let run executor ~txn ?(wait = true) ast =
  let graph = Protocol.graph executor.protocol in
  let catalog = Nf2.Database.catalog executor.db in
  match Analyzer.analyze catalog ast with
  | Error analysis_error -> Error (Analysis_error analysis_error)
  | Ok analysis -> (
    let plan =
      Colock.Query_graph.build ~threshold:executor.threshold catalog
        ~stats:(stats_for executor) analysis.Analyzer.accesses
    in
    let choice =
      match plan.Colock.Query_graph.choices with
      | [ choice ] -> choice
      | choices -> (
        match choices with
        | choice :: _ -> choice
        | [] -> invalid_arg "Executor: no lock choice")
    in
    let target = analysis.Analyzer.target in
    let mode = choice.Colock.Query_graph.mode in
    let object_conditions =
      List.map
        (fun (path, literal) -> (path, Ast.literal_to_value literal))
        analysis.Analyzer.object_conditions
    in
    let relative_conditions =
      member_conditions target.Analyzer.path object_conditions
    in
    let store =
      match Nf2.Database.relation executor.db target.Analyzer.relation with
      | Some store -> store
      | None -> invalid_arg "Executor: relation disappeared"
    in
    (* Qualifying complex objects with their instance nodes; an index on an
       equality-condition path narrows the scan to its candidates. *)
    let index_candidates =
      List.find_map
        (fun (path, value) ->
          Nf2.Database.index_lookup executor.db
            ~relation:target.Analyzer.relation ~path value)
        object_conditions
    in
    let qualify key value accu =
      if satisfies object_conditions value then
        let oid = Oid.make ~relation:target.Analyzer.relation ~key in
        match Graph.object_node graph oid with
        | Some node -> (oid, node, value) :: accu
        | None -> accu
      else accu
    in
    let objects =
      match index_candidates with
      | Some keys ->
        List.fold_left
          (fun accu key ->
            match Nf2.Relation.find store key with
            | Some value -> qualify key value accu
            | None -> accu)
          [] keys
        |> List.rev
      | None -> List.rev (Nf2.Relation.fold qualify store [])
    in
    (* Rows: the members the selected variable ranges over. *)
    let rows =
      List.rev
        (List.fold_left
           (fun rows (oid, object_node, object_value) ->
             add_rows graph ~oid ~conditions:relative_conditions
               target.Analyzer.path object_node object_value rows)
           [] objects)
    in
    (* Lock targets, per the paper's placement rules. *)
    let lock_targets =
      match relative_conditions with
      | _ :: _ when List.length rows <= executor.threshold ->
        (* member-pinning conditions: lock exactly the selected members *)
        List.map (fun { node; _ } -> { lt_node = node; lt_mode = mode }) rows
      | _ -> (
        match choice.Colock.Query_graph.granule with
        | Colock.Query_graph.Whole_relation -> (
          match Graph.relation_node graph target.Analyzer.relation with
          | Some node -> [ { lt_node = node; lt_mode = mode } ]
          | None -> [])
        | Colock.Query_graph.Whole_object ->
          List.map
            (fun (_oid, node, _value) -> { lt_node = node; lt_mode = mode })
            objects
        | Colock.Query_graph.Subtree path ->
          List.concat_map
            (fun (oid, _node, _value) ->
              List.map
                (fun node -> { lt_node = node; lt_mode = mode })
                (Graph.nodes_at_path graph oid path))
            objects)
    in
    match acquire_all executor ~txn ~wait lock_targets with
    | () ->
      Ok { rows; plan; locks_requested = List.length lock_targets;
           used_index = Option.is_some index_candidates }
    | exception Blocked_exception { node; blockers; waiting } ->
      Error (Blocked { node; blockers; waiting }))

let run_string executor ~txn ?wait text =
  match Parser.parse text with
  | Error parse_error -> Error (Parse_error parse_error)
  | Ok ast -> (
    match run executor ~txn ?wait ast with
    | Ok result ->
      Protocol.emit executor.protocol
        (Obs.Event.Query_executed
           { txn; query = text; rows = List.length result.rows;
             locks_requested = result.locks_requested });
      Ok result
    | Error _ as error -> error)

let insert_object executor ~txn ?(wait = true) relation value =
  let graph = Protocol.graph executor.protocol in
  let catalog = Nf2.Database.catalog executor.db in
  match Nf2.Catalog.find catalog relation, Graph.relation_node graph relation with
  | None, _ | _, None ->
    Error (Database_error (Nf2.Database.Unknown_relation relation))
  | Some schema, Some relation_node -> (
    match Nf2.Value.key_of_object schema value with
    | None ->
      Error (Database_error (Nf2.Database.Relation_error (Nf2.Relation.No_key relation)))
    | Some key -> (
      (* IX down to the relation node, then X on the future object node (the
         lock table is name-based, so locking a not-yet-existing node is
         fine — this is exactly what keeps relation scans phantom-safe). *)
      match
        Protocol.acquire executor.protocol ~txn ~wait relation_node Mode.IX
      with
      | Protocol.Blocked { step; blockers; _ } ->
        Error (Blocked { node = step.Protocol.node; blockers; waiting = wait })
      | Protocol.Acquired _ -> (
        let resource =
          Node_id.child_resource (Graph.resource graph relation_node) key
        in
        match
          Lockmgr.Lock_table.request (Protocol.table executor.protocol) ~txn
            ~wait ~resource Mode.X
        with
        | Lockmgr.Lock_table.Waiting blockers ->
          let node = Node_id.child (Graph.id graph relation_node) key in
          Error (Blocked { node; blockers; waiting = wait })
        | Lockmgr.Lock_table.Granted -> (
          match
            record executor ~txn (Store.insert executor.store relation value)
          with
          | Ok () -> Ok (Oid.make ~relation ~key)
          | Error error -> Error (store_error error)))))

let delete_object executor ~txn ?(wait = true) oid =
  let graph = Protocol.graph executor.protocol in
  match Graph.object_node graph oid with
  | None when Option.is_none (Graph.relation_node graph (Oid.relation oid)) ->
    Error (Database_error (Nf2.Database.Unknown_relation (Oid.relation oid)))
  | None ->
    Error
      (Database_error (Relation_error (Nf2.Relation.Unknown_key (Oid.key oid))))
  | Some object_node -> (
    (* §4.5 semantics refinement: a plain delete never accesses the
       referenced common data, so downward propagation is skipped ("no locks
       on common data are necessary at all"). *)
    match
      Protocol.acquire executor.protocol ~txn ~wait ~follow_references:false
        object_node Mode.X
    with
    | Protocol.Blocked { step; blockers; _ } ->
      Error (Blocked { node = step.Protocol.node; blockers; waiting = wait })
    | Protocol.Acquired _ ->
      Result.map_error store_error
        (record executor ~txn (Store.delete executor.store oid)))

(* Rebuild the object value with the sub-value at the row's node replaced,
   descending along the row node's parent chain. *)
let apply_update executor ~txn row update =
  let graph = Protocol.graph executor.protocol in
  let object_node =
    match Graph.object_node graph row.oid with
    | Some node -> node
    | None -> invalid_arg "Executor.apply_update: unknown object"
  in
  (* the nodes from just below the object down to the row's node *)
  let rec chain (node : Graph.node) below =
    if node == object_node then below
    else
      match Graph.parent_node graph node with
      | Some parent -> chain parent (node :: below)
      | None -> invalid_arg "Executor.apply_update: row outside its object"
  in
  let rec rebuild (node : Graph.node) value = function
    | [] -> update value
    | (next : Graph.node) :: rest -> (
      match node.kind, value with
      | Colock.Lockable.Helu, Value.Tuple bindings ->
        Value.Tuple
          (List.map
             (fun (field, sub) ->
               if String.equal field next.step then
                 (field, rebuild next sub rest)
               else (field, sub))
             bindings)
      | Colock.Lockable.Holu, Value.Set members ->
        Value.Set (rebuild_members node members next rest)
      | Colock.Lockable.Holu, Value.List members ->
        Value.List (rebuild_members node members next rest)
      | (Colock.Lockable.Blu | Colock.Lockable.Helu | Colock.Lockable.Holu), _
        ->
        value)
  and rebuild_members node members next rest =
    List.map2
      (fun child member -> if child == next then rebuild child member rest else member)
      (Graph.children graph node) members
  in
  let store_value =
    match Nf2.Database.deref executor.db row.oid with
    | Some value -> value
    | None -> invalid_arg "Executor.apply_update: object disappeared"
  in
  let updated = rebuild object_node store_value (chain row.node []) in
  record executor ~txn (Store.replace executor.store row.oid updated)
