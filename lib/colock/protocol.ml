module Lock_mode = Lockmgr.Lock_mode
module Lock_table = Lockmgr.Lock_table

let log_src = Logs.Src.create "colock.protocol" ~doc:"lock protocol decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type rule = Rule_4 | Rule_4_prime

type t = {
  graph : Instance_graph.t;
  table : Lock_table.t;
  rights : Authz.Rights.t;
  rule : rule;
}

let create ?(rule = Rule_4_prime) ?(rights = Authz.Rights.create ()) graph
    table =
  (* The table's lock events get tagged with the granule metadata of this
     protocol's lock graph (BLU/HoLU/HeLU + depth). *)
  Lock_table.set_meta table (Instance_graph.lu_resolver graph);
  { graph; table; rights; rule }

let graph protocol = protocol.graph
let table protocol = protocol.table
let rights protocol = protocol.rights
let rule protocol = protocol.rule

let emit protocol kind =
  match Lock_table.obs protocol.table with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

type reason =
  | Requested
  | Ancestor_intention
  | Upward_propagation
  | Downward_propagation

type step = {
  node : Node_id.t;
  mode : Lock_mode.t;
  reason : reason;
  resource : string;
}

let pp_step formatter { node; mode; reason; _ } =
  let reason_text =
    match reason with
    | Requested -> "requested"
    | Ancestor_intention -> "ancestor intention"
    | Upward_propagation -> "upward propagation"
    | Downward_propagation -> "downward propagation"
  in
  Format.fprintf formatter "%a: %a (%s)" Node_id.pp node Lock_mode.pp mode
    reason_text

(* Tables keyed by a node's dense id. *)
module By_index = Obs.Int_table

(* Ordered plans with supremum-merge on duplicate nodes, keyed on dense node
   ids.  The first position of a node is kept, which preserves
   parent-before-child in every chain the node occurs in. *)
module Plan_builder = struct
  type cell = {
    node : Instance_graph.node;
    mutable mode : Lock_mode.t;
    mutable reason : reason;
  }

  type builder = {
    positions : cell By_index.t;
    mutable order : cell list;  (* reversed insertion order *)
  }

  let create () = { positions = By_index.create 16; order = [] }

  let add builder (node : Instance_graph.node) mode reason =
    match By_index.find_opt builder.positions node.index with
    | Some cell ->
      cell.mode <- Lock_mode.sup cell.mode mode;
      (* "requested" dominates in reporting; otherwise keep the first. *)
      if reason = Requested then cell.reason <- Requested
    | None ->
      let cell = { node; mode; reason } in
      By_index.add builder.positions node.index cell;
      builder.order <- cell :: builder.order

  let finish graph builder =
    List.rev_map
      (fun { node; mode; reason } ->
        { node = Instance_graph.id graph node; mode; reason;
          resource = Instance_graph.resource graph node })
      builder.order
end

(* The data mode an S/X/SIX lock imposes on the units below it; NL when the
   mode carries no data part that must propagate. *)
let propagated_data_mode = function
  | Lock_mode.X -> Lock_mode.X
  | Lock_mode.S | Lock_mode.SIX -> Lock_mode.S
  | Lock_mode.NL | Lock_mode.IS | Lock_mode.IX -> Lock_mode.NL

(* Mode actually placed on one entry point, given the mode being propagated
   and the transaction's rights on the entry's relation (rule 4 vs 4'). *)
let entry_mode protocol ~txn (entry : Instance_graph.node) data_mode =
  match protocol.rule with
  | Rule_4 -> data_mode
  | Rule_4_prime -> (
    match data_mode with
    | Lock_mode.X -> (
      match entry.relation with
      | Some relation ->
        if Authz.Rights.may_modify protocol.rights ~txn ~relation then
          Lock_mode.X
        else Lock_mode.S
      | None -> Lock_mode.X)
    | Lock_mode.NL | Lock_mode.IS | Lock_mode.IX | Lock_mode.S | Lock_mode.SIX
      ->
      data_mode)

let add_chain builder chain mode reason =
  List.iter (fun node -> Plan_builder.add builder node mode reason) chain

(* Downward propagation: breadth-first over inner units reachable from
   [node], carrying the mode to propagate into each.  Crosses superunit
   boundaries; each entry point gets upward propagation (intentions on its
   superunit parents) first. *)
let add_downward_propagation protocol ~txn builder node mode =
  let data_mode = propagated_data_mode mode in
  if not (Lock_mode.equal data_mode Lock_mode.NL) then begin
    let graph = protocol.graph in
    let seen = By_index.create 8 in
    let rec propagate_from node data_mode =
      List.iter
        (fun (entry : Instance_graph.node) ->
          let mode_here = entry_mode protocol ~txn entry data_mode in
          let cached = By_index.find_opt seen entry.index in
          let already_covers =
            match cached with
            | Some previous -> Lock_mode.leq mode_here previous
            | None -> false
          in
          if not already_covers then begin
            let merged =
              match cached with
              | Some previous -> Lock_mode.sup previous mode_here
              | None -> mode_here
            in
            By_index.replace seen entry.index merged;
            add_chain builder
              (Instance_graph.ancestor_nodes graph entry)
              (Lock_mode.intention_for mode_here)
              Upward_propagation;
            Plan_builder.add builder entry mode_here Downward_propagation;
            propagate_from entry (propagated_data_mode mode_here)
          end)
        (Instance_graph.entry_points_below graph node)
    in
    propagate_from node data_mode
  end

let plan_node protocol ~txn ?(follow_references = true) target mode =
  let graph = protocol.graph in
  let builder = Plan_builder.create () in
  add_chain builder
    (Instance_graph.ancestor_nodes graph target)
    (Lock_mode.intention_for mode) Ancestor_intention;
  Plan_builder.add builder target mode Requested;
  if follow_references then
    add_downward_propagation protocol ~txn builder target mode;
  let steps = Plan_builder.finish graph builder in
  Log.debug (fun log ->
      log "T%d plan for %s %s: %d step(s)%s" txn (Lock_mode.to_string mode)
        (Instance_graph.resource graph target) (List.length steps)
        (let propagated =
           List.length
             (List.filter
                (fun step -> step.reason = Downward_propagation)
                steps)
         in
         if propagated = 0 then ""
         else Printf.sprintf " (%d propagated entry point(s))" propagated));
  steps

let plan protocol ~txn ?follow_references node mode =
  plan_node protocol ~txn ?follow_references
    (Instance_graph.node_exn protocol.graph node) mode

type outcome =
  | Acquired of step list
  | Blocked of {
      step : step;
      blockers : Lock_table.txn_id list;
      acquired : step list;
    }

let run_plan protocol ~txn ?wait ?duration steps =
  let rec walk acquired = function
    | [] -> Acquired (List.rev acquired)
    | step :: rest -> (
      match
        Lock_table.request protocol.table ~txn ?wait ?duration
          ~resource:step.resource step.mode
      with
      | Lock_table.Granted -> walk (step :: acquired) rest
      | Lock_table.Waiting blockers ->
        Blocked { step; blockers; acquired = List.rev acquired })
  in
  walk [] steps

let acquire protocol ~txn ?wait ?duration ?follow_references node mode =
  run_plan protocol ~txn ?wait ?duration
    (plan_node protocol ~txn ?follow_references node mode)

let explicit_mode protocol ~txn node =
  Lock_table.held protocol.table ~txn
    ~resource:(Instance_graph.resource protocol.graph node)

let effective_mode protocol ~txn node =
  let explicit = explicit_mode protocol ~txn node in
  let implicit =
    List.fold_left
      (fun inherited ancestor ->
        match explicit_mode protocol ~txn ancestor with
        | Lock_mode.X -> Lock_mode.X
        | Lock_mode.S | Lock_mode.SIX -> Lock_mode.sup inherited Lock_mode.S
        | Lock_mode.NL | Lock_mode.IS | Lock_mode.IX -> inherited)
      Lock_mode.NL
      (Instance_graph.ancestor_nodes protocol.graph node)
  in
  Lock_mode.sup explicit implicit

type protocol_violation =
  | Parent_not_locked of {
      node : Node_id.t;
      parent : Node_id.t;
      needed : Lock_mode.t;
      held : Lock_mode.t;
    }
  | Entry_point_not_reached of { entry : Node_id.t; needed : Lock_mode.t }

let pp_protocol_violation formatter = function
  | Parent_not_locked { node; parent; needed; held } ->
    Format.fprintf formatter
      "parent %a of %a holds %a, but %a (or more restrictive) is required"
      Node_id.pp parent Node_id.pp node Lock_mode.pp held Lock_mode.pp needed
  | Entry_point_not_reached { entry; needed } ->
    Format.fprintf formatter
      "no referencing node of entry point %a is %a-locked" Node_id.pp entry
      Lock_mode.pp needed

let request_explicit protocol ~txn ?duration current mode =
  let graph = protocol.graph in
  let needed = Lock_mode.intention_for mode in
  let parent_ok parent =
    Lock_mode.leq needed (effective_mode protocol ~txn parent)
  in
  let precondition =
    match Instance_graph.parent_node graph current with
    | None -> Ok ()  (* root of the outer unit: no locks needed *)
    | Some parent ->
      if current.entry_point then
        (* Reached either via a locked referencing node (the manager then
           performs upward propagation) or directly through its locked
           parent relation. *)
        let via_reference =
          match current.oid with
          | Some oid ->
            List.exists parent_ok (Instance_graph.referencers graph oid)
          | None -> false
        in
        if via_reference || parent_ok parent then Ok ()
        else
          Error
            (Entry_point_not_reached
               { entry = Instance_graph.id graph current; needed })
      else if parent_ok parent then Ok ()
      else
        Error
          (Parent_not_locked
             { node = Instance_graph.id graph current;
               parent = Instance_graph.id graph parent; needed;
               held = effective_mode protocol ~txn parent })
  in
  match precondition with
  | Error _ as error -> error
  | Ok () ->
    (* Only the request itself plus the two implicit propagations; the
       caller is responsible for the explicit parent chain (checked
       above). *)
    let builder = Plan_builder.create () in
    if current.entry_point then
      add_chain builder
        (Instance_graph.ancestor_nodes graph current)
        (Lock_mode.intention_for mode) Upward_propagation;
    Plan_builder.add builder current mode Requested;
    add_downward_propagation protocol ~txn builder current mode;
    Ok (run_plan protocol ~txn ?duration (Plan_builder.finish graph builder))

let release_node protocol ~txn node =
  Lock_table.release protocol.table ~txn
    ~resource:(Instance_graph.resource protocol.graph node)

let end_of_transaction protocol ~txn =
  Authz.Rights.forget_txn protocol.rights ~txn;
  Lock_table.release_all protocol.table ~txn

let commit_keeping_long_locks protocol ~txn =
  Lock_table.release_short protocol.table ~txn
