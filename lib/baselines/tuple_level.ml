module Graph = Colock.Instance_graph

let rec has_helu_descendant graph (node : Graph.node) =
  List.exists
    (fun (child : Graph.node) ->
      (match child.kind with
       | Colock.Lockable.Helu -> true
       | Colock.Lockable.Holu | Colock.Lockable.Blu -> false)
      || has_helu_descendant graph child)
    (Graph.children graph node)

let leaf_tuples graph root =
  (* BLU children are leaves of their own; tuples and collections recurse *)
  let rec members accu node =
    List.fold_left
      (fun accu (child : Graph.node) ->
        match child.kind with
        | Colock.Lockable.Blu -> child :: accu
        | Colock.Lockable.Helu | Colock.Lockable.Holu -> walk accu child)
      accu (Graph.children graph node)
  and walk accu (node : Graph.node) =
    match node.kind with
    | Colock.Lockable.Helu ->
      if has_helu_descendant graph node then members accu node
      else node :: accu
    | Colock.Lockable.Holu -> members accu node
    | Colock.Lockable.Blu -> node :: accu
  in
  List.rev (walk [] root)

let plan_roots graph roots mode =
  let seen_objects = Hashtbl.create 16 in
  let rec locks_for roots =
    let leaves = List.concat_map (leaf_tuples graph) roots in
    let own =
      List.concat_map
        (fun leaf -> Technique.with_ancestors graph leaf mode)
        leaves
    in
    let referenced =
      List.concat_map (Graph.subtree_refs graph) roots
      |> List.sort_uniq Nf2.Oid.compare
      |> List.filter_map (fun ref_oid ->
             if Hashtbl.mem seen_objects ref_oid then None
             else begin
               Hashtbl.replace seen_objects ref_oid ();
               Graph.object_node graph ref_oid
             end)
    in
    match referenced with
    | [] -> own
    | _ :: _ -> own @ locks_for referenced
  in
  Technique.merge graph (locks_for roots)

let plan_node graph node mode = plan_roots graph [ node ] mode

let plan graph ~oid ?(target = Nf2.Path.root) mode =
  plan_roots graph (Graph.nodes_at_path graph oid target) mode

let lock_count graph ~oid ?target mode =
  List.length (plan graph ~oid ?target mode)
