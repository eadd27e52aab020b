module Graph = Colock.Instance_graph

let plan graph ~oid mode =
  match Graph.object_node graph oid with
  | None -> []
  | Some root ->
    (* Closure over referenced complex objects, depth-first, deduplicated. *)
    let seen = Hashtbl.create 16 in
    let order = ref [] in
    let rec visit (node : Graph.node) =
      if not (Hashtbl.mem seen node.index) then begin
        Hashtbl.replace seen node.index ();
        order := node :: !order;
        List.iter
          (fun ref_oid ->
            match Graph.object_node graph ref_oid with
            | Some target -> visit target
            | None -> ())
          (Graph.subtree_refs graph node)
      end
    in
    visit root;
    let objects = List.rev !order in
    Technique.merge graph
      (List.concat_map
         (fun node -> Technique.with_ancestors graph node mode)
         objects)

let lock_count graph ~oid mode = List.length (plan graph ~oid mode)
