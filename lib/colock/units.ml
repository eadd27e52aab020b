let is_entry_point graph id = (Instance_graph.node_exn graph id).entry_point

let unit_root graph id =
  let rec climb (current : Instance_graph.node) =
    if current.entry_point then current.id
    else
      match Instance_graph.parent_node graph current with
      | None -> current.id  (* database node: root of the outer unit *)
      | Some parent -> climb parent
  in
  climb (Instance_graph.node_exn graph id)

let in_outer_unit graph id =
  Node_id.equal (unit_root graph id) (Instance_graph.root graph)

let unit_members graph ~root =
  let rec walk accu id =
    let current = Instance_graph.node_exn graph id in
    if current.entry_point && not (Node_id.equal id root) then accu
    else
      let accu = id :: accu in
      List.fold_left walk accu current.children
  in
  List.rev (walk [] root)

let superunit_parents graph ~root =
  Instance_graph.ancestors graph root

let entry_points_below graph id =
  List.map
    (fun (entry : Instance_graph.node) -> entry.id)
    (Instance_graph.entry_points_below graph (Instance_graph.node_exn graph id))

let pp_unit graph formatter root =
  let members = unit_members graph ~root in
  let depth_of id = Node_id.depth id - Node_id.depth root in
  Format.fprintf formatter "@[<v>";
  List.iteri
    (fun position id ->
      if position > 0 then Format.pp_print_cut formatter ();
      let indent = String.make (2 * depth_of id) ' ' in
      let current = Instance_graph.node_exn graph id in
      let refs =
        match current.Instance_graph.refs_out with
        | [] -> ""
        | refs ->
          "  - - -> "
          ^ String.concat ", " (List.map Nf2.Oid.to_string refs)
      in
      Format.fprintf formatter "%s%a (%s)%s" indent Lockable.pp
        current.Instance_graph.kind
        (Node_id.to_resource id)
        refs)
    members;
  Format.fprintf formatter "@]"
