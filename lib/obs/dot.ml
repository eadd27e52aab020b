let esc s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The minimal counterexample cycle, as a set of directed (from, to)
   pairs plus the node set, so both edges and nodes can be painted. *)
let cycle_parts (cert : Certify.certificate) =
  List.fold_left
    (fun acc v ->
      match (v : Certify.violation) with
      | Unserializable { edges; _ } ->
          List.fold_left
            (fun (pairs, nodes) (e : Certify.edge) ->
              ((e.e_from, e.e_to) :: pairs, e.e_from :: e.e_to :: nodes))
            acc edges
      | _ -> acc)
    ([], []) cert.violations

let render (cert : Certify.certificate) =
  let cycle_pairs, cycle_nodes = cycle_parts cert in
  let on_cycle_edge e =
    List.exists
      (fun (f, t) -> f = e.Certify.e_from && t = e.Certify.e_to)
      cycle_pairs
  in
  let on_cycle_node n = List.mem n cycle_nodes in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name =
    match cert.label with None -> "serialization" | Some l -> esc l
  in
  add "digraph \"%s\" {\n" name;
  add "  rankdir=LR;\n";
  add "  node [shape=circle, fontname=\"monospace\"];\n";
  List.iter
    (fun txn ->
      if on_cycle_node txn then
        add "  t%d [label=\"T%d\", color=red, fontcolor=red];\n" txn txn
      else add "  t%d [label=\"T%d\"];\n" txn txn)
    cert.graph_txns;
  List.iter
    (fun (e : Certify.edge) ->
      let label =
        Printf.sprintf "%s %s>%s%s" e.e_resource e.e_first.a_mode
          e.e_second.a_mode
          (if e.e_count > 1 then Printf.sprintf " (+%d)" (e.e_count - 1)
           else "")
      in
      if on_cycle_edge e then
        add "  t%d -> t%d [label=\"%s\", color=red, fontcolor=red, penwidth=2];\n"
          e.e_from e.e_to (esc label)
      else add "  t%d -> t%d [label=\"%s\"];\n" e.e_from e.e_to (esc label))
    (Lazy.force cert.graph_edges);
  add "}\n";
  Buffer.contents buf

let print channel cert = output_string channel (render cert)
