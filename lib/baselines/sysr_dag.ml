module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph
module Node_id = Colock.Node_id

let parent_enumeration_visits graph =
  List.length (Colock.Units.unit_members graph ~root:(Graph.root graph))

let plan_exclusive_all_parents graph ~oid =
  match Graph.object_node graph oid with
  | None -> []
  | Some node ->
    let referencing_chains =
      List.concat_map
        (fun referencer -> Technique.with_ancestors graph referencer Mode.IX)
        (Graph.referencers graph oid)
    in
    let own_chain = Technique.with_ancestors graph node Mode.X in
    Technique.merge graph (referencing_chains @ own_chain)

let plan_hierarchical_naive graph node mode =
  Technique.merge graph (Technique.with_ancestors graph node mode)

type hidden_conflict = {
  at : Node_id.t;
  writer : Table.txn_id;
  other : Table.txn_id;
}

(* DAG-effective coverage of one transaction, by dense id: explicit data
   locks flow down solid edges and across dashed references (the
   transaction *believes* the referenced common data are implicitly
   locked). *)
let coverage ?rights graph table ~txn =
  let covered = Hashtbl.create 64 in
  let weaken mode target_relation =
    match rights, mode with
    | Some rights, Mode.X ->
      if Authz.Rights.may_modify rights ~txn ~relation:target_relation then
        Mode.X
      else Mode.S
    | (None | Some _), _ -> mode
  in
  let record (node : Graph.node) mode =
    let merged =
      match Hashtbl.find_opt covered node.index with
      | Some (previous, _node) -> Mode.sup previous mode
      | None -> mode
    in
    Hashtbl.replace covered node.index (merged, node)
  in
  let rec spread (node : Graph.node) mode =
    record node mode;
    List.iter (fun child -> spread child mode) (Graph.children graph node);
    List.iter
      (fun ref_oid ->
        match Graph.object_node graph ref_oid with
        | Some target ->
          let target_mode = weaken mode (Nf2.Oid.relation ref_oid) in
          let already =
            match Hashtbl.find_opt covered target.index with
            | Some (previous, _node) -> Mode.leq target_mode previous
            | None -> false
          in
          if not already then spread target target_mode
        | None -> ())
      node.refs_out
  in
  List.iter
    (fun (resource, mode, _duration) ->
      let data_mode =
        match mode with
        | Mode.X -> Some Mode.X
        | Mode.S | Mode.SIX -> Some Mode.S
        | Mode.NL | Mode.IS | Mode.IX -> None
      in
      match data_mode with
      | Some data_mode -> (
        match Graph.node_of_resource graph resource with
        | Some node -> spread node data_mode
        | None -> ())
      | None -> ())
    (Table.locks_of table ~txn);
  covered

let hidden_conflicts ?rights graph table ~txns =
  let coverages =
    List.map (fun txn -> (txn, coverage ?rights graph table ~txn)) txns
  in
  let conflicts = ref [] in
  let conflict node writer other =
    conflicts := { at = Graph.id graph node; writer; other } :: !conflicts
  in
  let rec pairs = function
    | [] -> ()
    | (txn_a, coverage_a) :: rest ->
      List.iter
        (fun (txn_b, coverage_b) ->
          Hashtbl.iter
            (fun index (mode_a, node) ->
              match Hashtbl.find_opt coverage_b index with
              | Some (mode_b, _node) ->
                if Mode.grants_write mode_a && Mode.grants_read mode_b then
                  conflict node txn_a txn_b
                else if Mode.grants_write mode_b && Mode.grants_read mode_a then
                  conflict node txn_b txn_a
              | None -> ())
            coverage_a)
        rest;
      pairs rest
  in
  pairs coverages;
  List.sort_uniq compare !conflicts
