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
  let intention = Mode.intention_for mode in
  List.map
    (fun ancestor -> (ancestor, intention))
    (Graph.ancestor_nodes graph node)
  @ [ (node, mode) ]

let merge graph locks =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ((node : Graph.node), mode) ->
      match Hashtbl.find_opt seen node.index with
      | Some cell -> cell := (node, Mode.sup (snd !cell) mode)
      | None ->
        let cell = ref (node, mode) in
        Hashtbl.replace seen node.index cell;
        order := cell :: !order)
    locks;
  List.rev_map
    (fun cell ->
      let node, mode = !cell in
      { node = Graph.id graph node; mode; resource = Graph.resource graph node })
    !order
