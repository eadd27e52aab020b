type t = {
  relation : string;
  cardinality : int;
  collection_sizes : (Path.t * float) list;
  distinct_counts : (Path.t * int) list;
}

let empty relation =
  { relation; cardinality = 0; collection_sizes = []; distinct_counts = [] }

(* The totals of one attribute path, with the slots of its tuple fields
   below: the walk reaches a field's slot through its parent's, so no path
   is built or hashed per value. *)
type slot = {
  path : Path.t;
  mutable members : int;  (* summed over the collections at this path *)
  mutable instances : int;  (* collections at this path *)
  renderings : (string, unit) Hashtbl.t;  (* distinct atomic values *)
  mutable fields : (string * slot) list;
}

let slot path =
  { path; members = 0; instances = 0; renderings = Hashtbl.create 8;
    fields = [] }

let field_slot parent field =
  match List.assoc_opt field parent.fields with
  | Some found -> found
  | None ->
    let fresh = slot (Path.child parent.path field) in
    parent.fields <- (field, fresh) :: parent.fields;
    fresh

let compute store =
  let root = slot Path.root in
  let rec walk slot value =
    match value with
    | Value.Str _ | Value.Int _ | Value.Real _ | Value.Bool _ -> (
      match Value.render_atomic value with
      | Some rendering -> Hashtbl.replace slot.renderings rendering ()
      | None -> ())
    | Value.Ref oid -> Hashtbl.replace slot.renderings (Oid.to_string oid) ()
    | Value.Set members | Value.List members ->
      slot.members <- slot.members + List.length members;
      slot.instances <- slot.instances + 1;
      List.iter (walk slot) members
    | Value.Tuple bindings ->
      List.iter (fun (field, sub) -> walk (field_slot slot field) sub) bindings
  in
  let cardinality =
    Relation.fold
      (fun _key value seen ->
        walk root value;
        seen + 1)
      store 0
  in
  let rec all slot accu =
    List.fold_left
      (fun accu (_field, below) -> all below accu)
      (slot :: accu) slot.fields
  in
  (* reported in path order, as a path map would list them *)
  let slots = List.sort (fun a b -> Path.compare a.path b.path) (all root []) in
  let collection_sizes =
    List.filter_map
      (fun slot ->
        if slot.instances = 0 then None
        else
          Some
            ( slot.path,
              float_of_int slot.members /. float_of_int slot.instances ))
      slots
  in
  let distinct_counts =
    List.filter_map
      (fun slot ->
        match Hashtbl.length slot.renderings with
        | 0 -> None
        | count -> Some (slot.path, count))
      slots
  in
  { relation = Relation.name store; cardinality; collection_sizes;
    distinct_counts }

let avg_collection_size stats path =
  match
    List.find_opt (fun (p, _size) -> Path.equal p path) stats.collection_sizes
  with
  | Some (_path, size) -> size
  | None -> 1.0

let selectivity_eq stats path =
  match
    List.find_opt (fun (p, _count) -> Path.equal p path) stats.distinct_counts
  with
  | Some (_path, count) when count > 0 -> 1.0 /. float_of_int count
  | Some _ | None -> 1.0

let estimate_matching stats predicate_path =
  let cardinality = float_of_int stats.cardinality in
  let matched =
    match predicate_path with
    | None -> cardinality
    | Some path -> cardinality *. selectivity_eq stats path
  in
  if stats.cardinality = 0 then 0.0 else Float.max 1.0 matched

let pp formatter stats =
  Format.fprintf formatter "@[<v>stats(%s): cardinality %d" stats.relation
    stats.cardinality;
  List.iter
    (fun (path, size) ->
      Format.fprintf formatter "@,  |%a| ~ %.2f" Path.pp path size)
    stats.collection_sizes;
  List.iter
    (fun (path, count) ->
      Format.fprintf formatter "@,  #distinct(%a) = %d" Path.pp path count)
    stats.distinct_counts;
  Format.fprintf formatter "@]"
