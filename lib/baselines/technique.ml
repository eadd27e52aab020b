module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph

type request = { node : Node_id.t; mode : Mode.t; resource : string }

let of_step { Colock.Protocol.node; mode; resource; _ } =
  { node; mode; resource }

type outcome =
  | Acquired of int
  | Blocked of { request : request; blockers : Table.txn_id list }

let acquire table ~txn ?wait requests =
  let rec walk issued = function
    | [] -> Acquired issued
    | request :: rest -> (
      match
        Table.request table ~txn ?wait ~resource:request.resource request.mode
      with
      | Table.Granted -> walk (issued + 1) rest
      | Table.Waiting blockers -> Blocked { request; blockers })
  in
  walk 0 requests

let with_ancestors graph node mode =
  let target = Graph.node_exn graph node in
  let intention = Mode.intention_for mode in
  List.map
    (fun (ancestor : Graph.node) ->
      { node = ancestor.id; mode = intention; resource = ancestor.resource })
    (Graph.ancestor_nodes graph target)
  @ [ { node; mode; resource = target.resource } ]

let merge requests =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun request ->
      match Hashtbl.find_opt seen request.resource with
      | Some cell ->
        cell := { request with mode = Mode.sup !cell.mode request.mode }
      | None ->
        let cell = ref request in
        Hashtbl.replace seen request.resource cell;
        order := cell :: !order)
    requests;
  List.rev_map (fun cell -> !cell) !order

let pp_request formatter { node; mode; _ } =
  Format.fprintf formatter "%a: %a" Node_id.pp node Mode.pp mode
