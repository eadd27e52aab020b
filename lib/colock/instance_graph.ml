type node = {
  id : Node_id.t;
  index : int;
  resource : string;
  kind : Lockable.kind;
  parent_index : int;
  mutable children : Node_id.t list;
  refs_out : Nf2.Oid.t list;
  entry_point : bool;
  relation : string option;
  oid : Nf2.Oid.t option;
  mutable below : below;
}

and below = Unknown | Known of { epoch : int; entries : node list }

module Oid_map = Map.Make (struct
  type t = Nf2.Oid.t

  let compare = Nf2.Oid.compare
end)

type t = {
  root : Node_id.t;
  nodes : (Node_id.t, node) Hashtbl.t;
  by_resource : (string, node) Hashtbl.t;
      (* resource string -> node, for the lock table's lockable-unit
         annotation; one hash probe per traced lock event *)
  mutable by_index : node array;  (* dense id -> node; [vacant] in holes *)
  mutable next_index : int;
  mutable free_indexes : int list;  (* ids of deleted nodes, for reuse *)
  mutable epoch : int;
      (* bumped by every structural change; a memoised entry-point list is
         valid only for the epoch it was computed in *)
  mutable pending_refs : (Nf2.Oid.t * Node_id.t) list;
      (* references met while building a subtree, filed afterwards *)
  mutable segment_index : (string * Node_id.t) list;
  mutable relation_index : (string * Node_id.t) list;
  mutable object_index : node Oid_map.t;
  mutable referencer_index : Node_id.t list Oid_map.t;
}

(* Fills the holes of [by_index]; never handed out. *)
let vacant =
  { id = Node_id.database ""; index = -1; resource = ""; kind = Lockable.Blu;
    parent_index = -1; children = []; refs_out = []; entry_point = false;
    relation = None; oid = None; below = Unknown }

(* Construction numbers nodes top-down and files them bottom-up: a node's
   record (and dense id) exists before its children are built, so each child
   records its parent's id; [register] files the node once its children list
   is complete. *)

let fresh_index graph =
  match graph.free_indexes with
  | index :: rest ->
    graph.free_indexes <- rest;
    index
  | [] ->
    let index = graph.next_index in
    graph.next_index <- index + 1;
    if index = Array.length graph.by_index then begin
      let grown = Array.make (max 1024 (2 * index)) vacant in
      Array.blit graph.by_index 0 grown 0 index;
      graph.by_index <- grown
    end;
    index

let register graph node =
  Hashtbl.replace graph.nodes node.id node;
  Hashtbl.replace graph.by_resource node.resource node;
  graph.by_index.(node.index) <- node

(* A fresh node one step below [parent], children still to come. *)
let make graph ~parent ?(entry_point = false) ?relation ?oid ?(refs_out = [])
    kind step =
  { id = Node_id.child parent.id step; index = fresh_index graph;
    resource = Node_id.child_resource parent.resource step; kind;
    parent_index = parent.index; children = []; refs_out; entry_point;
    relation; oid; below = Unknown }

(* A leaf (BLU), carrying the reference it holds, if any. *)
let leaf graph ~parent ?refs_out step =
  let node = make graph ~parent ?refs_out Lockable.Blu step in
  List.iter
    (fun oid -> graph.pending_refs <- (oid, node.id) :: graph.pending_refs)
    node.refs_out;
  register graph node;
  node.id

(* Stable, human-readable member names: prefer an atomic field ending in
   "_id", then any renderable atomic field, then the member's own rendering,
   then a positional fallback; collisions get the position appended. *)
let member_name used position value =
  let candidate =
    match value with
    | Nf2.Value.Tuple bindings ->
      let renderable (field, sub) =
        match Nf2.Value.render_atomic sub with
        | Some rendering -> Some (field, rendering)
        | None -> None
      in
      let atomics = List.filter_map renderable bindings in
      let id_like =
        List.find_opt
          (fun (field, _rendering) ->
            String.length field >= 3
            && String.equal (String.sub field (String.length field - 3) 3) "_id")
          atomics
      in
      (match id_like, atomics with
       | Some (_field, rendering), _ -> Some rendering
       | None, (_field, rendering) :: _ -> Some rendering
       | None, [] -> None)
    | Nf2.Value.Str _ | Nf2.Value.Int _ | Nf2.Value.Real _ | Nf2.Value.Bool _
      ->
      Nf2.Value.render_atomic value
    | Nf2.Value.Ref oid -> Some (Nf2.Oid.to_string oid)
    | Nf2.Value.Set _ | Nf2.Value.List _ -> None
  in
  let base =
    match candidate with
    | Some rendering -> rendering
    | None -> Printf.sprintf "#%d" position
  in
  if Hashtbl.mem used base then Printf.sprintf "%s#%d" base position
  else begin
    Hashtbl.add used base ();
    base
  end

let rec build_attr graph ~parent ~field_name attr value =
  match attr, value with
  | Nf2.Schema.Atomic (Nf2.Schema.Ref _target), Nf2.Value.Ref oid ->
    leaf graph ~parent ~refs_out:[ oid ] field_name
  | Nf2.Schema.Atomic _, _ -> leaf graph ~parent field_name
  | (Nf2.Schema.Set inner | Nf2.Schema.List inner),
    (Nf2.Value.Set members | Nf2.Value.List members) ->
    let node = make graph ~parent Lockable.Holu field_name in
    node.children <- build_members graph ~parent:node inner members;
    register graph node;
    node.id
  | Nf2.Schema.Tuple fields, Nf2.Value.Tuple bindings ->
    let node = make graph ~parent Lockable.Helu field_name in
    node.children <- build_fields graph ~parent:node fields bindings;
    register graph node;
    node.id
  | (Nf2.Schema.Set _ | Nf2.Schema.List _ | Nf2.Schema.Tuple _), _ ->
    (* Values are typechecked on insert, so a shape mismatch here is a
       programming error, not data. *)
    invalid_arg
      (Printf.sprintf "Instance_graph: value shape mismatch at %s"
         (Node_id.child_resource parent.resource field_name))

and build_members graph ~parent inner members =
  let used = Hashtbl.create (List.length members) in
  List.mapi
    (fun position member ->
      let name = member_name used position member in
      build_member graph ~parent ~name inner member)
    members

and build_member graph ~parent ~name inner member =
  match inner, member with
  | Nf2.Schema.Tuple fields, Nf2.Value.Tuple bindings ->
    let node = make graph ~parent Lockable.Helu name in
    node.children <- build_fields graph ~parent:node fields bindings;
    register graph node;
    node.id
  | Nf2.Schema.Atomic (Nf2.Schema.Ref _target), Nf2.Value.Ref oid ->
    leaf graph ~parent ~refs_out:[ oid ] name
  | Nf2.Schema.Atomic _, _ -> leaf graph ~parent name
  | (Nf2.Schema.Set inner_inner | Nf2.Schema.List inner_inner),
    (Nf2.Value.Set sub_members | Nf2.Value.List sub_members) ->
    let node = make graph ~parent Lockable.Holu name in
    node.children <- build_members graph ~parent:node inner_inner sub_members;
    register graph node;
    node.id
  | (Nf2.Schema.Set _ | Nf2.Schema.List _ | Nf2.Schema.Tuple _), _ ->
    invalid_arg
      (Printf.sprintf "Instance_graph: member shape mismatch at %s"
         (Node_id.child_resource parent.resource name))

and build_fields graph ~parent fields bindings =
  List.map2
    (fun { Nf2.Schema.field_name; field_type } (_bound_name, bound_value) ->
      build_attr graph ~parent ~field_name field_type bound_value)
    fields bindings

let build_object graph ~parent ~shared schema key value =
  let oid = Nf2.Oid.make ~relation:schema.Nf2.Schema.rel_name ~key in
  let node =
    make graph ~parent ~entry_point:shared ~relation:schema.Nf2.Schema.rel_name
      ~oid Lockable.Helu key
  in
  (match value with
   | Nf2.Value.Tuple bindings ->
     node.children <-
       build_fields graph ~parent:node schema.Nf2.Schema.fields bindings
   | Nf2.Value.Str _ | Nf2.Value.Int _ | Nf2.Value.Real _ | Nf2.Value.Bool _
   | Nf2.Value.Ref _ | Nf2.Value.Set _ | Nf2.Value.List _ ->
     invalid_arg "Instance_graph: complex object is not a tuple");
  register graph node;
  graph.object_index <- Oid_map.add oid node graph.object_index;
  node.id

let build db =
  let root = Node_id.database (Nf2.Database.name db) in
  let graph =
    { root; nodes = Hashtbl.create 1024; by_resource = Hashtbl.create 1024;
      by_index = [||]; next_index = 0; free_indexes = []; epoch = 0;
      pending_refs = []; segment_index = []; relation_index = [];
      object_index = Oid_map.empty; referencer_index = Oid_map.empty }
  in
  let root_node =
    { vacant with id = root; index = fresh_index graph;
      resource = Node_id.to_resource root; kind = Lockable.Helu }
  in
  let catalog = Nf2.Database.catalog db in
  let segment_node segment =
    let node = make graph ~parent:root_node Lockable.Helu segment in
    let relations_here =
      List.filter
        (fun store ->
          String.equal (Nf2.Relation.schema store).Nf2.Schema.segment segment)
        (Nf2.Database.relations db)
    in
    let relation_node store =
      let schema = Nf2.Relation.schema store in
      let rel_name = schema.Nf2.Schema.rel_name in
      let relation =
        make graph ~parent:node ~relation:rel_name Lockable.Holu rel_name
      in
      let shared = Nf2.Catalog.is_shared catalog rel_name in
      relation.children <-
        List.map
          (fun (key, value) ->
            build_object graph ~parent:relation ~shared schema key value)
          (Nf2.Relation.objects store);
      register graph relation;
      graph.relation_index <- (rel_name, relation.id) :: graph.relation_index;
      relation.id
    in
    node.children <- List.map relation_node relations_here;
    register graph node;
    graph.segment_index <- (segment, node.id) :: graph.segment_index;
    node.id
  in
  root_node.children <- List.map segment_node (Nf2.Catalog.segments catalog);
  register graph root_node;
  (* File the references, each referencer list in deterministic order. *)
  graph.referencer_index <-
    List.fold_left
      (fun index (oid, holder) ->
        Oid_map.update oid
          (fun known -> Some (holder :: Option.value ~default:[] known))
          index)
      Oid_map.empty graph.pending_refs
    |> Oid_map.map (fun holders -> List.sort_uniq Node_id.compare holders);
  graph.pending_refs <- [];
  graph.by_index <- Array.sub graph.by_index 0 graph.next_index;
  graph

let root graph = graph.root
let node graph id = Hashtbl.find_opt graph.nodes id

let node_exn graph id =
  match node graph id with
  | Some found -> found
  | None ->
    invalid_arg
      (Printf.sprintf "Instance_graph: unknown node %s"
         (Node_id.to_resource id))

(* Sorted insertion into a duplicate-free list; the element must be new. *)
let rec insert_sorted compare element = function
  | [] -> [ element ]
  | first :: rest as list ->
    if compare element first < 0 then element :: list
    else first :: insert_sorted compare element rest

let insert_object graph catalog schema ~key value =
  let rel_name = schema.Nf2.Schema.rel_name in
  match List.assoc_opt rel_name graph.relation_index with
  | None -> Error (Printf.sprintf "unknown relation %S" rel_name)
  | Some relation_id ->
    let candidate = Node_id.child relation_id key in
    if Hashtbl.mem graph.nodes candidate then
      Error (Printf.sprintf "object %S already in the graph" key)
    else begin
      let shared = Nf2.Catalog.is_shared catalog rel_name in
      let relation_node = Hashtbl.find graph.nodes relation_id in
      let object_id =
        build_object graph ~parent:relation_node ~shared schema key value
      in
      relation_node.children <-
        insert_sorted Node_id.compare object_id relation_node.children;
      List.iter
        (fun (oid, holder) ->
          graph.referencer_index <-
            Oid_map.update oid
              (fun known ->
                Some
                  (insert_sorted Node_id.compare holder
                     (Option.value ~default:[] known)))
              graph.referencer_index)
        graph.pending_refs;
      graph.pending_refs <- [];
      graph.epoch <- graph.epoch + 1;
      Ok object_id
    end

let delete_object graph oid =
  match Oid_map.find_opt oid graph.object_index with
  | None -> Error (Printf.sprintf "unknown object %s" (Nf2.Oid.to_string oid))
  | Some object_node -> (
    match Oid_map.find_opt oid graph.referencer_index with
    | Some (_ :: _) ->
      Error
        (Printf.sprintf "object %s is still referenced"
           (Nf2.Oid.to_string oid))
    | Some [] | None ->
      (* drop the subtree, unhooking any outgoing references *)
      let rec drop id =
        match Hashtbl.find_opt graph.nodes id with
        | None -> ()
        | Some current ->
          List.iter
            (fun target ->
              match Oid_map.find_opt target graph.referencer_index with
              | None -> ()
              | Some holders ->
                let holders =
                  List.filter
                    (fun holder -> not (Node_id.equal holder id))
                    holders
                in
                graph.referencer_index <-
                  Oid_map.add target holders graph.referencer_index)
            current.refs_out;
          List.iter drop current.children;
          Hashtbl.remove graph.nodes id;
          Hashtbl.remove graph.by_resource current.resource;
          graph.by_index.(current.index) <- vacant;
          graph.free_indexes <- current.index :: graph.free_indexes
      in
      drop object_node.id;
      let relation_node = graph.by_index.(object_node.parent_index) in
      relation_node.children <-
        List.filter
          (fun child -> not (Node_id.equal child object_node.id))
          relation_node.children;
      graph.object_index <- Oid_map.remove oid graph.object_index;
      graph.referencer_index <- Oid_map.remove oid graph.referencer_index;
      graph.epoch <- graph.epoch + 1;
      Ok ())

let node_count graph = Hashtbl.length graph.nodes
let segment_node graph name = List.assoc_opt name graph.segment_index
let relation_node graph name = List.assoc_opt name graph.relation_index

let object_node graph oid =
  match Oid_map.find oid graph.object_index with
  | found -> Some found.id
  | exception Not_found -> None

let member_node graph holu name =
  let candidate = Node_id.child holu name in
  if Hashtbl.mem graph.nodes candidate then Some candidate else None

let referencers graph oid =
  match Oid_map.find_opt oid graph.referencer_index with
  | None -> []
  | Some nodes -> nodes

let parent_node graph node =
  if node.parent_index < 0 then None
  else Some graph.by_index.(node.parent_index)

let ancestor_nodes graph node =
  let rec climb accu index =
    if index < 0 then accu
    else
      let parent = graph.by_index.(index) in
      climb (parent :: accu) parent.parent_index
  in
  climb [] node.parent_index

let ancestors graph id =
  List.map
    (fun ancestor -> ancestor.id)
    (ancestor_nodes graph (node_exn graph id))

let entry_points_below graph node =
  match node.below with
  | Known { epoch; entries } when epoch = graph.epoch -> entries
  | Known _ | Unknown ->
    (* Refs carried by the unit-local subtree of [node]: walk solid edges
       without descending into entry points (their refs belong to their own
       units). *)
    let rec collect accu current =
      if current.entry_point && current != node then accu
      else
        List.fold_left
          (fun accu child -> collect accu (node_exn graph child))
          (List.rev_append current.refs_out accu)
          current.children
    in
    let entries =
      collect [] node
      |> List.sort_uniq Nf2.Oid.compare
      |> List.filter_map (fun oid -> Oid_map.find_opt oid graph.object_index)
    in
    node.below <- Known { epoch = graph.epoch; entries };
    entries

let lu_of_resource graph resource =
  match Hashtbl.find_opt graph.by_resource resource with
  | Some node ->
    Some
      { Obs.Event.lu_kind = Lockable.to_string node.kind;
        lu_depth = Node_id.depth node.id }
  | None -> None

let lu_resolver graph = fun resource -> lu_of_resource graph resource

let fold visit graph accu =
  Hashtbl.fold (fun _id node accu -> visit node accu) graph.nodes accu

let subtree_fold visit graph accu id =
  let rec walk accu id =
    let current = node_exn graph id in
    let accu = visit accu current in
    List.fold_left walk accu current.children
  in
  walk accu id

let subtree_refs graph id =
  subtree_fold (fun accu current -> List.rev_append current.refs_out accu)
    graph [] id
  |> List.sort_uniq Nf2.Oid.compare

let subtree_size graph id = subtree_fold (fun count _node -> count + 1) graph 0 id

let nodes_at_path graph oid path =
  match object_node graph oid with
  | None -> []
  | Some object_id ->
    let rec resolve frontier steps =
      match steps with
      | [] -> frontier
      | step :: rest ->
        let advance id =
          let current = node_exn graph id in
          match current.kind with
          | Lockable.Holu ->
            (* fan out over members, step not yet consumed *)
            List.concat_map
              (fun member -> resolve [ member ] steps)
              current.children
          | Lockable.Helu -> (
            match member_node graph id step with
            | Some child -> resolve [ child ] rest
            | None -> [])
          | Lockable.Blu -> []
        in
        List.concat_map advance frontier
    in
    (* Collapse any trailing HoLUs?  No: the path addresses the HoLU itself,
       so resolution stops once all steps are consumed. *)
    resolve [ object_id ] (Nf2.Path.to_list path)
