let unit_root graph node =
  let rec climb (current : Instance_graph.node) =
    if current.entry_point then current
    else
      match Instance_graph.parent_node graph current with
      | None -> current  (* database node: root of the outer unit *)
      | Some parent -> climb parent
  in
  climb node

let in_outer_unit graph node =
  unit_root graph node == Instance_graph.root graph

let unit_members graph ~root =
  let rec walk accu (current : Instance_graph.node) =
    if current.entry_point && current != root then accu
    else
      List.fold_left walk (current :: accu)
        (Instance_graph.children graph current)
  in
  List.rev (walk [] root)

let superunit_parents graph ~root = Instance_graph.ancestor_nodes graph root
let entry_points_below = Instance_graph.entry_points_below

let pp_unit graph formatter root =
  let members = unit_members graph ~root in
  let root_depth = Instance_graph.depth graph root in
  Format.fprintf formatter "@[<v>";
  List.iteri
    (fun position (current : Instance_graph.node) ->
      if position > 0 then Format.pp_print_cut formatter ();
      let indent =
        String.make (2 * (Instance_graph.depth graph current - root_depth)) ' '
      in
      let refs =
        match current.refs_out with
        | [] -> ""
        | refs ->
          "  - - -> "
          ^ String.concat ", " (List.map Nf2.Oid.to_string refs)
      in
      Format.fprintf formatter "%s%a (%s)%s" indent Lockable.pp current.kind
        (Instance_graph.resource graph current)
        refs)
    members;
  Format.fprintf formatter "@]"
