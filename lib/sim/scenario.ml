module Mode = Lockmgr.Lock_mode
module Graph = Colock.Instance_graph
module Node_id = Colock.Node_id
module Technique = Baselines.Technique

type technique =
  | Proposed of Colock.Protocol.t
  | Whole_object
  | Tuple_level

let technique_name = function
  | Proposed protocol -> (
    match Colock.Protocol.rule protocol with
    | Colock.Protocol.Rule_4 -> "proposed (rule 4)"
    | Colock.Protocol.Rule_4_prime -> "proposed (rule 4')")
  | Whole_object -> "whole-object (XSQL)"
  | Tuple_level -> "tuple-level"

type op = Node_read of Node_id.t | Node_update of Node_id.t

type job_spec = {
  arrival : int;
  ops : op list;
  access_cost : int;
  priority : Robust.Admission.priority;
}

let op_node_mode = function
  | Node_read node -> (node, Mode.S)
  | Node_update node -> (node, Mode.X)

(* The complex object containing an instance node (self included). *)
let containing_object graph node =
  let rec climb (node : Graph.node) =
    match node.oid with
    | Some oid -> Some oid
    | None -> (
      match Graph.parent_node graph node with
      | Some parent -> climb parent
      | None -> None)
  in
  climb node

(* The op's node is resolved once, here; the plan is drawn per
   transaction. *)
let compile_op graph technique op =
  let id, mode = op_node_mode op in
  let node = Graph.node_exn graph id in
  match technique with
  | Proposed protocol ->
    fun txn ->
      List.map Technique.of_step (Colock.Protocol.plan_node protocol ~txn node mode)
  | Whole_object -> (
    match containing_object graph node with
    | Some oid -> fun _txn -> Baselines.Whole_object.plan graph ~oid mode
    | None ->
      fun _txn -> Technique.merge graph (Technique.with_ancestors graph node mode))
  | Tuple_level -> fun _txn -> Baselines.Tuple_level.plan_node graph node mode

let compile graph technique specs =
  List.map
    (fun spec ->
      { Runner.arrival = spec.arrival;
        priority = spec.priority;
        steps =
          List.map
            (fun op ->
              { Runner.plan = compile_op graph technique op;
                access_cost = spec.access_cost })
            spec.ops })
    specs

(* A field of a cell object; job specs hold the graph's own ids, so a
   population shares the paths the graph keeps. *)
let cell_member graph cell field =
  match Graph.member_node graph cell field with
  | Some node -> node
  | None -> invalid_arg ("Scenario: cell without " ^ field)

type mix = {
  jobs : int;
  read_fraction : float;
  library_update_fraction : float;
  arrival_gap : int;
  access_cost : int;
  steps_per_job : int;
  seed : int;
}

let default_mix =
  { jobs = 40; read_fraction = 0.5; library_update_fraction = 0.0;
    arrival_gap = 10; access_cost = 100; steps_per_job = 1; seed = 17 }

let manufacturing_mix db graph mix =
  let state = Random.State.make [| mix.seed |] in
  let cells_store =
    match Nf2.Database.relation db "cells" with
    | Some store -> store
    | None -> invalid_arg "Scenario: no cells relation"
  in
  let cell_keys = Array.of_list (Nf2.Relation.keys cells_store) in
  let effector_keys =
    match Nf2.Database.relation db "effectors" with
    | Some store -> Array.of_list (Nf2.Relation.keys store)
    | None -> [||]
  in
  let random_cell () =
    cell_keys.(Random.State.int state (Array.length cell_keys))
  in
  let cell_node key =
    match
      Graph.object_node graph (Nf2.Oid.make ~relation:"cells" ~key)
    with
    | Some node -> node
    | None -> invalid_arg "Scenario: unknown cell"
  in
  let random_robot_node () =
    let members = Graph.children graph (cell_member graph (cell_node (random_cell ())) "robots") in
    Graph.id graph (List.nth members (Random.State.int state (List.length members)))
  in
  let random_op () =
    let dice = Random.State.float state 1.0 in
    if dice < mix.library_update_fraction && Array.length effector_keys > 0
    then
      let key =
        effector_keys.(Random.State.int state (Array.length effector_keys))
      in
      match
        Graph.object_node graph (Nf2.Oid.make ~relation:"effectors" ~key)
      with
      | Some node -> Node_update (Graph.id graph node)
      | None -> invalid_arg "Scenario: unknown effector"
    else if dice < mix.library_update_fraction +. ((1.0 -. mix.library_update_fraction) *. mix.read_fraction)
    then
      Node_read
        (Graph.id graph (cell_member graph (cell_node (random_cell ())) "c_objects"))
    else Node_update (random_robot_node ())
  in
  List.init mix.jobs (fun index ->
      let ops = List.init mix.steps_per_job (fun _step -> random_op ()) in
      (* purely-reading jobs are the first to queue under admission control *)
      let priority =
        if List.for_all (function Node_read _ -> true | Node_update _ -> false) ops
        then Robust.Admission.Low
        else Robust.Admission.Normal
      in
      { arrival = index * mix.arrival_gap; ops;
        access_cost = mix.access_cost; priority })

(* ------------------------------------------------- declarative scenarios *)

let technique_of_dsl graph table = function
  | Workload.Dsl.Proposed ->
    Proposed (Colock.Protocol.create graph table)
  | Workload.Dsl.Proposed_rule4 ->
    Proposed (Colock.Protocol.create ~rule:Colock.Protocol.Rule_4 graph table)
  | Workload.Dsl.Whole_object -> Whole_object
  | Workload.Dsl.Tuple_level -> Tuple_level

let config_of_dsl (dsl : Workload.Dsl.t) =
  let overload =
    if Workload.Dsl.overload_active dsl.overload then
      Some
        { Runner.admission = dsl.overload.admission;
          controller = dsl.overload.controller;
          budget = dsl.overload.retry;
          breaker = dsl.overload.breaker }
    else None
  in
  { Runner.default_config with
    engine =
      { Runner.default_config.engine with restart = dsl.overload.restart };
    overload }

let faults_of_dsl (dsl : Workload.Dsl.t) =
  { Fault.crash = dsl.faults.crash; stall = dsl.faults.stall;
    stall_factor = dsl.faults.factor; hog = dsl.faults.hog;
    fault_seed = dsl.seed }

(* Zipf sampling over ranks 1..n: cumulative weights 1/r^skew, one binary
   search per draw. Rank 0 of the key array is the most popular. *)
let zipf_cumulative ~skew n =
  let cumulative = Array.make n 0.0 in
  let total = ref 0.0 in
  for rank = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (rank + 1) ** skew));
    cumulative.(rank) <- !total
  done;
  cumulative

let pick_rank state = function
  | None -> fun n -> Random.State.int state n
  | Some cumulative ->
    fun n ->
      let total = cumulative.(n - 1) in
      let target = Random.State.float state total in
      let rec search low high =
        if low >= high then low
        else
          let middle = (low + high) / 2 in
          if cumulative.(middle) < target then search (middle + 1) high
          else search low middle
      in
      search 0 (n - 1)

let arrival_times state (dsl : Workload.Dsl.t) =
  match dsl.arrivals with
  | Workload.Dsl.Uniform { gap } ->
    Array.init dsl.jobs (fun index -> index * gap)
  | Workload.Dsl.Bursty { burst; every; spread } ->
    Array.init dsl.jobs (fun index ->
        ((index / burst) * every) + (index mod burst * spread))
  | Workload.Dsl.Poisson { mean } ->
    let clock = ref 0.0 in
    Array.init dsl.jobs (fun _index ->
        let draw = Random.State.float state 1.0 in
        clock := !clock +. (-.mean *. log (1.0 -. draw));
        int_of_float !clock)

let of_dsl db graph (dsl : Workload.Dsl.t) =
  let state = Random.State.make [| dsl.seed |] in
  let keys_of relation =
    match Nf2.Database.relation db relation with
    | Some store -> Array.of_list (Nf2.Relation.keys store)
    | None -> invalid_arg (Printf.sprintf "Scenario: no %s relation" relation)
  in
  let cell_keys = keys_of "cells" in
  let effector_keys = keys_of "effectors" in
  let skew =
    match dsl.popularity with
    | Workload.Dsl.Flat -> None
    | Workload.Dsl.Zipf skew -> Some skew
  in
  let cell_pick =
    pick_rank state
      (Option.map (fun skew -> zipf_cumulative ~skew (Array.length cell_keys)) skew)
  in
  let effector_pick =
    pick_rank state
      (Option.map
         (fun skew -> zipf_cumulative ~skew (Array.length effector_keys))
         skew)
  in
  let cell_node key =
    match Graph.object_node graph (Nf2.Oid.make ~relation:"cells" ~key) with
    | Some node -> node
    | None -> invalid_arg "Scenario: unknown cell"
  in
  let random_cell () = cell_keys.(cell_pick (Array.length cell_keys)) in
  let read_op () =
    Node_read
      (Graph.id graph (cell_member graph (cell_node (random_cell ())) "c_objects"))
  in
  let update_op () =
    let members =
      Graph.children graph (cell_member graph (cell_node (random_cell ())) "robots")
    in
    Node_update
      (Graph.id graph (List.nth members (Random.State.int state (List.length members))))
  in
  let library_op () =
    let key = effector_keys.(effector_pick (Array.length effector_keys)) in
    match
      Graph.object_node graph (Nf2.Oid.make ~relation:"effectors" ~key)
    with
    | Some node -> Node_update (Graph.id graph node)
    | None -> invalid_arg "Scenario: unknown effector"
  in
  let arrivals = arrival_times state dsl in
  List.init dsl.jobs (fun index ->
      let arrival = arrivals.(index) in
      let dice = Random.State.float state 1.0 in
      let mix = dsl.mix in
      if dice < mix.Workload.Dsl.read then
        { arrival;
          ops = List.init dsl.steps (fun _step -> read_op ());
          access_cost = dsl.cost;
          priority = Robust.Admission.Low }
      else if dice < mix.Workload.Dsl.read +. mix.Workload.Dsl.update then
        { arrival;
          ops = List.init dsl.steps (fun _step -> update_op ());
          access_cost = dsl.cost;
          priority = Robust.Admission.Normal }
      else if
        dice
        < mix.Workload.Dsl.read +. mix.Workload.Dsl.update
          +. mix.Workload.Dsl.library
      then
        { arrival;
          ops = List.init dsl.steps (fun _step -> library_op ());
          access_cost = dsl.cost;
          priority = Robust.Admission.Normal }
      else begin
        (* a long check-out session: X on one whole cell object, held for
           [checkout_hold] ticks per step — the Txn.Checkout usage pattern
           compressed into the simulator's step shape *)
        let root = Graph.id graph (cell_node (random_cell ())) in
        { arrival;
          ops = List.init dsl.checkout_steps (fun _step -> Node_update root);
          access_cost = dsl.checkout_hold;
          priority = Robust.Admission.High }
      end)
