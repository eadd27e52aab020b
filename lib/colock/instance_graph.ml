type node = {
  index : int;
  parent_index : int;
  step : string;
  kind : Lockable.kind;
  entry_point : bool;
  mutable children : int array;
  refs_out : Nf2.Oid.t list;
  relation : string option;
  oid : Nf2.Oid.t option;
  mutable names : names;
  mutable below : below;
}

and names = Unnamed | Named of Node_id.t * string
and below = Unknown | Known of { epoch : int; entries : node list }

(* A relation node and the key table of its complex objects. *)
type relation = {
  rel_name : string;
  rel_index : int;
  keys : (string, int) Hashtbl.t;  (* object key -> dense id *)
}

type t = {
  mutable root : node;
  mutable by_index : node array;  (* dense id -> node; [vacant] in holes *)
  mutable next_index : int;
  mutable free_indexes : int list;  (* ids of deleted nodes, for reuse *)
  mutable live : int;
  mutable epoch : int;
      (* bumped by every structural change; a memoised entry-point list is
         valid only for the epoch it was computed in *)
  mutable pending_refs : (Nf2.Oid.t * int) list;
      (* references met while building a subtree, filed afterwards *)
  mutable relations : relation list;
  referencer_index : (Nf2.Oid.t, int list) Hashtbl.t;
      (* referenced object -> dense ids of the BLUs holding the reference,
         in path order *)
}

(* Fills the holes of [by_index]; never handed out. *)
let vacant =
  { index = -1; parent_index = -1; step = ""; kind = Lockable.Blu;
    entry_point = false; children = [||]; refs_out = []; relation = None;
    oid = None; names = Unnamed; below = Unknown }

let get graph index = graph.by_index.(index)

(* ------------------------------------------------------------- rendering *)

(* A node's id and resource are rendered from its parent's, on first use,
   and kept: every caller gets the same physical values. *)
let rec name graph node =
  node.names <-
    (if node.parent_index < 0 then
       Named (Node_id.database node.step, Obs.Resource.render [ node.step ])
     else
       let parent = get graph node.parent_index in
       Named
         ( Node_id.child (id graph parent) node.step,
           Node_id.child_resource (resource graph parent) node.step ))

and id graph node =
  match node.names with
  | Named (id, _resource) -> id
  | Unnamed ->
    name graph node;
    id graph node

and resource graph node =
  match node.names with
  | Named (_id, resource) -> resource
  | Unnamed ->
    name graph node;
    resource graph node

let depth graph node =
  let rec climb node count =
    if node.parent_index < 0 then count
    else climb (get graph node.parent_index) (count + 1)
  in
  climb node 1

(* [Node_id.compare] on nodes, without rendering: root-first lexicographic
   over steps, a proper prefix first. *)
let compare_paths graph a b =
  let rec same_depth a b =
    if a == b then 0
    else
      let above =
        same_depth (get graph a.parent_index) (get graph b.parent_index)
      in
      if above <> 0 then above else String.compare a.step b.step
  in
  let rec lift node count =
    if count = 0 then node else lift (get graph node.parent_index) (count - 1)
  in
  let depth_a = depth graph a and depth_b = depth graph b in
  if depth_a = depth_b then same_depth a b
  else if depth_a < depth_b then
    let prefix = same_depth a (lift b (depth_b - depth_a)) in
    if prefix <> 0 then prefix else -1
  else
    let prefix = same_depth (lift a (depth_a - depth_b)) b in
    if prefix <> 0 then prefix else 1

(* ---------------------------------------------------------- construction *)

(* Construction numbers nodes top-down: a node (and its dense id) exists
   before its children are built, so each child records its parent's id. *)

let fresh_index graph =
  graph.live <- graph.live + 1;
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

(* A fresh node one step below [parent], children still to come. *)
let make graph ~parent ?(entry_point = false) ?relation ?oid ?(refs_out = [])
    kind step =
  let index = fresh_index graph in
  let node =
    { index; parent_index = parent.index; step; kind; entry_point;
      children = [||]; refs_out; relation; oid; names = Unnamed;
      below = Unknown }
  in
  graph.by_index.(index) <- node;
  node

(* A leaf (BLU), carrying the reference it holds, if any. *)
let leaf graph ~parent ?refs_out step =
  let node = make graph ~parent ?refs_out Lockable.Blu step in
  List.iter
    (fun oid -> graph.pending_refs <- (oid, node.index) :: graph.pending_refs)
    node.refs_out;
  node.index

(* Stable, human-readable member names: prefer an atomic field ending in
   "_id", then any renderable atomic field, then the member's own rendering,
   then a positional fallback. A name already handed out to a sibling gets
   the position appended until it is unique, so every sibling step names
   exactly one member. *)
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
  let rec unique name =
    if Hashtbl.mem used name then unique (Printf.sprintf "%s#%d" name position)
    else name
  in
  let name = unique base in
  Hashtbl.add used name ();
  name

let shape_mismatch graph ~parent what step =
  (* Values are typechecked on insert, so a shape mismatch here is a
     programming error, not data. *)
  invalid_arg
    (Printf.sprintf "Instance_graph: %s shape mismatch at %s" what
       (Node_id.child_resource (resource graph parent) step))

let rec build_attr graph ~parent ~field_name attr value =
  match attr, value with
  | Nf2.Schema.Atomic (Nf2.Schema.Ref _target), Nf2.Value.Ref oid ->
    leaf graph ~parent ~refs_out:[ oid ] field_name
  | Nf2.Schema.Atomic _, _ -> leaf graph ~parent field_name
  | (Nf2.Schema.Set inner | Nf2.Schema.List inner),
    (Nf2.Value.Set members | Nf2.Value.List members) ->
    let node = make graph ~parent Lockable.Holu field_name in
    node.children <- build_members graph ~parent:node inner members;
    node.index
  | Nf2.Schema.Tuple fields, Nf2.Value.Tuple bindings ->
    let node = make graph ~parent Lockable.Helu field_name in
    node.children <- build_fields graph ~parent:node fields bindings;
    node.index
  | (Nf2.Schema.Set _ | Nf2.Schema.List _ | Nf2.Schema.Tuple _), _ ->
    shape_mismatch graph ~parent "value" field_name

and build_members graph ~parent inner members =
  let used = Hashtbl.create (List.length members) in
  Array.of_list
    (List.mapi
       (fun position member ->
         let name = member_name used position member in
         build_member graph ~parent ~name inner member)
       members)

and build_member graph ~parent ~name inner member =
  match inner, member with
  | Nf2.Schema.Tuple fields, Nf2.Value.Tuple bindings ->
    let node = make graph ~parent Lockable.Helu name in
    node.children <- build_fields graph ~parent:node fields bindings;
    node.index
  | Nf2.Schema.Atomic (Nf2.Schema.Ref _target), Nf2.Value.Ref oid ->
    leaf graph ~parent ~refs_out:[ oid ] name
  | Nf2.Schema.Atomic _, _ -> leaf graph ~parent name
  | (Nf2.Schema.Set inner_inner | Nf2.Schema.List inner_inner),
    (Nf2.Value.Set sub_members | Nf2.Value.List sub_members) ->
    let node = make graph ~parent Lockable.Holu name in
    node.children <- build_members graph ~parent:node inner_inner sub_members;
    node.index
  | (Nf2.Schema.Set _ | Nf2.Schema.List _ | Nf2.Schema.Tuple _), _ ->
    shape_mismatch graph ~parent "member" name

and build_fields graph ~parent fields bindings =
  Array.of_list
    (List.map2
       (fun { Nf2.Schema.field_name; field_type } (_bound_name, bound_value) ->
         build_attr graph ~parent ~field_name field_type bound_value)
       fields bindings)

(* [tag] is the relation node's own [Some rel_name], shared by its
   objects. *)
let build_object graph ~parent ~shared ~tag relation schema key value =
  let oid = Nf2.Oid.make ~relation:relation.rel_name ~key in
  let node =
    make graph ~parent ~entry_point:shared ?relation:tag ~oid Lockable.Helu
      key
  in
  (match value with
   | Nf2.Value.Tuple bindings ->
     node.children <-
       build_fields graph ~parent:node schema.Nf2.Schema.fields bindings
   | Nf2.Value.Str _ | Nf2.Value.Int _ | Nf2.Value.Real _ | Nf2.Value.Bool _
   | Nf2.Value.Ref _ | Nf2.Value.Set _ | Nf2.Value.List _ ->
     invalid_arg "Instance_graph: complex object is not a tuple");
  Hashtbl.replace relation.keys key node.index;
  node.index

let compare_indexes graph a b = compare_paths graph (get graph a) (get graph b)

(* Files the pending references: each referencer list gains its new
   holders and stays in path order. *)
let file_references graph =
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun (oid, holder) ->
      Hashtbl.replace fresh oid
        (holder :: Option.value ~default:[] (Hashtbl.find_opt fresh oid)))
    graph.pending_refs;
  Hashtbl.iter
    (fun oid holders ->
      let known =
        Option.value ~default:[] (Hashtbl.find_opt graph.referencer_index oid)
      in
      Hashtbl.replace graph.referencer_index oid
        (List.sort (compare_indexes graph) (List.rev_append holders known)))
    fresh;
  graph.pending_refs <- []

let build db =
  let name = Nf2.Database.name db in
  let graph =
    { root = vacant; by_index = [||]; next_index = 0; free_indexes = [];
      live = 0; epoch = 0; pending_refs = []; relations = [];
      referencer_index = Hashtbl.create 64 }
  in
  let root =
    { vacant with index = fresh_index graph; step = name; kind = Lockable.Helu }
  in
  graph.by_index.(root.index) <- root;
  graph.root <- root;
  let catalog = Nf2.Database.catalog db in
  let segment_node segment =
    let node = make graph ~parent:root Lockable.Helu segment in
    let relations_here =
      List.filter
        (fun store ->
          String.equal (Nf2.Relation.schema store).Nf2.Schema.segment segment)
        (Nf2.Database.relations db)
    in
    let relation_node store =
      let schema = Nf2.Relation.schema store in
      let rel_name = schema.Nf2.Schema.rel_name in
      let tag = Some rel_name in
      let node = make graph ~parent:node ?relation:tag Lockable.Holu rel_name in
      let objects = Nf2.Relation.objects store in
      let relation =
        { rel_name; rel_index = node.index;
          keys = Hashtbl.create (List.length objects) }
      in
      let shared = Nf2.Catalog.is_shared catalog rel_name in
      node.children <-
        Array.of_list
          (List.map
             (fun (key, value) ->
               build_object graph ~parent:node ~shared ~tag relation schema key
                 value)
             objects);
      graph.relations <- relation :: graph.relations;
      node.index
    in
    node.children <- Array.of_list (List.map relation_node relations_here);
    node.index
  in
  root.children <-
    Array.of_list (List.map segment_node (Nf2.Catalog.segments catalog));
  file_references graph;
  graph.by_index <- Array.sub graph.by_index 0 graph.next_index;
  graph

(* ------------------------------------------------------------ resolution *)

let find_relation graph rel_name =
  List.find_opt
    (fun relation -> String.equal relation.rel_name rel_name)
    graph.relations

let object_in graph relation key =
  match Hashtbl.find_opt relation.keys key with
  | Some index -> get graph index
  | None -> vacant

let found node = if node == vacant then None else Some node

let find_object graph oid =
  match find_relation graph (Nf2.Oid.relation oid) with
  | Some relation -> found (object_in graph relation (Nf2.Oid.key oid))
  | None -> None

(* The child one step below, or [vacant]: an object by one probe of its
   relation's key table ([key] renders the step), anything else among the
   children ([named] tests a child's step). *)
let child graph node key named =
  match node.relation, node.oid with
  | Some rel_name, None -> (
    match find_relation graph rel_name with
    | Some relation -> object_in graph relation (key ())
    | None -> vacant)
  | (Some _ | None), _ ->
    let children = node.children in
    let rec scan position =
      if position = Array.length children then vacant
      else
        let candidate = get graph children.(position) in
        if named candidate.step then candidate else scan (position + 1)
    in
    scan 0

let member_node graph node step =
  found (child graph node (fun () -> step) (String.equal step))

let node graph id =
  match Node_id.steps id with
  | [] -> None
  | database :: steps ->
    (* [vacant] once the path has left the graph *)
    let root =
      if String.equal database graph.root.step then graph.root else vacant
    in
    found
      (List.fold_left
         (fun current step ->
           if current == vacant then vacant
           else child graph current (fun () -> step) (String.equal step))
         root steps)

let node_exn graph id =
  match node graph id with
  | Some found -> found
  | None ->
    invalid_arg
      (Printf.sprintf "Instance_graph: unknown node %s"
         (Node_id.to_resource id))

let node_of_resource graph resource =
  let first = ref true in
  found
    (Obs.Resource.fold_steps
       (fun current step ->
         if !first then begin
           first := false;
           if String.equal step graph.root.step then graph.root else vacant
         end
         else if current == vacant then vacant
         else child graph current (fun () -> step) (String.equal step))
       vacant resource)

let root graph = graph.root
let node_count graph = graph.live
let object_node = find_object

let segment_node graph name = member_node graph graph.root name

let relation_node graph name =
  Option.map
    (fun relation -> get graph relation.rel_index)
    (find_relation graph name)

let children graph node =
  Array.fold_right (fun index accu -> get graph index :: accu) node.children []

let referencers graph oid =
  match Hashtbl.find_opt graph.referencer_index oid with
  | None -> []
  | Some holders -> List.map (get graph) holders

let parent_node graph node =
  if node.parent_index < 0 then None else Some (get graph node.parent_index)

let ancestor_nodes graph node =
  let rec climb accu index =
    if index < 0 then accu
    else
      let parent = get graph index in
      climb (parent :: accu) parent.parent_index
  in
  climb [] node.parent_index

(* ------------------------------------------------- incremental changes *)

let insert_object graph catalog schema ~key value =
  let rel_name = schema.Nf2.Schema.rel_name in
  match find_relation graph rel_name with
  | None -> Error (Printf.sprintf "unknown relation %S" rel_name)
  | Some relation ->
    if Hashtbl.mem relation.keys key then
      Error (Printf.sprintf "object %S already in the graph" key)
    else begin
      let shared = Nf2.Catalog.is_shared catalog rel_name in
      let relation_node = get graph relation.rel_index in
      let index =
        build_object graph ~parent:relation_node ~shared
          ~tag:relation_node.relation relation schema key value
      in
      (* objects stay in key order *)
      let siblings = relation_node.children in
      let rec position at =
        if at = Array.length siblings
           || String.compare key (get graph siblings.(at)).step < 0
        then at
        else position (at + 1)
      in
      let at = position 0 in
      relation_node.children <-
        Array.init
          (Array.length siblings + 1)
          (fun slot ->
            if slot < at then siblings.(slot)
            else if slot = at then index
            else siblings.(slot - 1));
      file_references graph;
      graph.epoch <- graph.epoch + 1;
      Ok (get graph index)
    end

let delete_object graph oid =
  match find_relation graph (Nf2.Oid.relation oid), find_object graph oid with
  | None, _ | _, None ->
    Error (Printf.sprintf "unknown object %s" (Nf2.Oid.to_string oid))
  | Some relation, Some object_node -> (
    match Hashtbl.find_opt graph.referencer_index oid with
    | Some (_ :: _) ->
      Error
        (Printf.sprintf "object %s is still referenced"
           (Nf2.Oid.to_string oid))
    | Some [] | None ->
      (* drop the subtree, unhooking any outgoing references *)
      let rec drop current =
        List.iter
          (fun target ->
            match Hashtbl.find_opt graph.referencer_index target with
            | None -> ()
            | Some holders ->
              Hashtbl.replace graph.referencer_index target
                (List.filter (fun holder -> holder <> current.index) holders))
          current.refs_out;
        Array.iter (fun child -> drop (get graph child)) current.children;
        graph.by_index.(current.index) <- vacant;
        graph.free_indexes <- current.index :: graph.free_indexes;
        graph.live <- graph.live - 1
      in
      drop object_node;
      let relation_node = get graph relation.rel_index in
      relation_node.children <-
        Array.of_list
          (List.filter
             (fun child -> child <> object_node.index)
             (Array.to_list relation_node.children));
      Hashtbl.remove relation.keys (Nf2.Oid.key oid);
      Hashtbl.remove graph.referencer_index oid;
      graph.epoch <- graph.epoch + 1;
      Ok ())

(* ------------------------------------------------------------- traversal *)

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
        Array.fold_left
          (fun accu child -> collect accu (get graph child))
          (List.rev_append current.refs_out accu)
          current.children
    in
    let entries =
      collect [] node
      |> List.sort_uniq Nf2.Oid.compare
      |> List.filter_map (find_object graph)
    in
    node.below <- Known { epoch = graph.epoch; entries };
    entries

let lu_of_resource graph resource =
  match node_of_resource graph resource with
  | Some node ->
    Some
      { Obs.Event.lu_kind = Lockable.to_string node.kind;
        lu_depth = depth graph node }
  | None -> None

let lu_resolver graph = fun resource -> lu_of_resource graph resource

let fold visit graph accu =
  let rec over index accu =
    if index = graph.next_index then accu
    else
      let node = get graph index in
      over (index + 1) (if node.index < 0 then accu else visit node accu)
  in
  over 0 accu

let subtree_fold visit graph accu node =
  let rec walk accu current =
    Array.fold_left
      (fun accu child -> walk accu (get graph child))
      (visit accu current) current.children
  in
  walk accu node

let subtree_refs graph node =
  subtree_fold (fun accu current -> List.rev_append current.refs_out accu)
    graph [] node
  |> List.sort_uniq Nf2.Oid.compare

let subtree_size graph node =
  subtree_fold (fun count _node -> count + 1) graph 0 node

let nodes_at_path graph oid path =
  match find_object graph oid with
  | None -> []
  | Some object_node ->
    let rec resolve current steps =
      match steps with
      | [] -> [ current ]
      | step :: rest -> (
        match current.kind with
        | Lockable.Holu ->
          (* fan out over members, step not yet consumed *)
          List.concat_map
            (fun member -> resolve member steps)
            (children graph current)
        | Lockable.Helu -> (
          match member_node graph current step with
          | Some child -> resolve child rest
          | None -> [])
        | Lockable.Blu -> [])
    in
    (* the path addresses the HoLU itself, so resolution stops once all
       steps are consumed *)
    resolve object_node (Nf2.Path.to_list path)
