module String_map = Map.Make (String)

type t = {
  name : string;
  catalog : Catalog.t;
  mutable stores : Relation.t String_map.t;
  mutable indexes : Index.t list String_map.t;  (* by relation *)
}

type error =
  | Catalog_error of Catalog.error
  | Relation_error of Relation.error
  | Unknown_relation of string
  | Index_error of string

let pp_error formatter = function
  | Catalog_error catalog_error -> Catalog.pp_error formatter catalog_error
  | Relation_error relation_error -> Relation.pp_error formatter relation_error
  | Unknown_relation name ->
    Format.fprintf formatter "unknown relation %S" name
  | Index_error message -> Format.fprintf formatter "index error: %s" message

let create name =
  { name; catalog = Catalog.create (); stores = String_map.empty;
    indexes = String_map.empty }
let name db = db.name
let catalog db = db.catalog

let create_relation db schema =
  match Relation.create schema with
  | Error relation_error -> Error (Relation_error relation_error)
  | Ok store -> (
    match Catalog.add db.catalog schema with
    | Error catalog_error -> Error (Catalog_error catalog_error)
    | Ok () -> (
      (* Cross-relation validation may fail (e.g. a reference cycle closed by
         this relation); roll the catalog entry back is not supported, so we
         validate against a catalog that already has every prior relation plus
         this one.  Targets referenced before their creation stay invalid
         until the target is added, so we only reject cycles here. *)
      match Catalog.validate db.catalog with
      | Error (Catalog.Recursive_reference _ as catalog_error) ->
        Error (Catalog_error catalog_error)
      | Error (Catalog.Duplicate_relation _ | Catalog.Unknown_target _) | Ok ()
        ->
        db.stores <- String_map.add schema.Schema.rel_name store db.stores;
        Ok store))

let relation db name = String_map.find_opt name db.stores
let relations db = List.map snd (String_map.bindings db.stores)

let with_relation db name apply =
  match relation db name with
  | None -> Error (Unknown_relation name)
  | Some store -> apply store

let lift_relation_result = function
  | Ok value -> Ok value
  | Error relation_error -> Error (Relation_error relation_error)

let indexes_of db name =
  match String_map.find_opt name db.indexes with
  | Some indexes -> indexes
  | None -> []

let insert db name value =
  with_relation db name (fun store ->
      match lift_relation_result (Relation.insert store value) with
      | Ok oid ->
        List.iter
          (fun index -> Index.insert_entries index ~key:(Oid.key oid) value)
          (indexes_of db name);
        Ok oid
      | Error _ as error -> error)

(* The relation hands back the version it replaced, so each index moves
   only the entries the replace changed. *)
let replace db oid value =
  let name = Oid.relation oid and key = Oid.key oid in
  with_relation db name (fun store ->
      match lift_relation_result (Relation.replace store ~key value) with
      | Error _ as error -> error
      | Ok before ->
        List.iter
          (fun index -> Index.replace_entries index ~key ~before value)
          (indexes_of db name);
        Ok before)

let delete db oid =
  with_relation db (Oid.relation oid) (fun store ->
      let old_value = Relation.find store (Oid.key oid) in
      match lift_relation_result (Relation.delete store (Oid.key oid)) with
      | Error _ as error -> error
      | Ok () ->
        (match old_value with
         | Some old_value ->
           List.iter
             (fun index ->
               Index.remove_entries index ~key:(Oid.key oid) old_value)
             (indexes_of db (Oid.relation oid))
         | None -> ());
        Ok ())

let deref db oid =
  match relation db (Oid.relation oid) with
  | None -> None
  | Some store -> Relation.find store (Oid.key oid)

let create_index db ~relation path =
  with_relation db relation (fun store ->
      match Index.build store path with
      | Error message -> Error (Index_error message)
      | Ok index ->
        let others =
          List.filter
            (fun existing -> not (Path.equal (Index.path existing) path))
            (indexes_of db relation)
        in
        db.indexes <- String_map.add relation (index :: others) db.indexes;
        Ok ())

let drop_index db ~relation path =
  let remaining =
    List.filter
      (fun existing -> not (Path.equal (Index.path existing) path))
      (indexes_of db relation)
  in
  db.indexes <- String_map.add relation remaining db.indexes

let indexed_paths db ~relation =
  List.sort Path.compare (List.map Index.path (indexes_of db relation))

let index_lookup db ~relation ~path probe =
  match
    List.find_opt
      (fun index -> Path.equal (Index.path index) path)
      (indexes_of db relation)
  with
  | Some index -> Some (Index.lookup index probe)
  | None -> None

type violation = { holder : Oid.t; at : Path.t; dangling : Oid.t }

let pp_violation formatter { holder; at; dangling } =
  Format.fprintf formatter "%a at %a dangles to %a" Oid.pp holder Path.pp at
    Oid.pp dangling

let check_ref_integrity db =
  let check_object rel_name key value accu =
    let holder = Oid.make ~relation:rel_name ~key in
    (* [Value.refs] has no paths; re-walk with paths for diagnostics. *)
    let rec walk accu path value =
      match value with
      | Value.Ref oid ->
        if Option.is_some (deref db oid) then accu
        else { holder; at = path; dangling = oid } :: accu
      | Value.Str _ | Value.Int _ | Value.Real _ | Value.Bool _ -> accu
      | Value.Set members | Value.List members ->
        List.fold_left (fun accu member -> walk accu path member) accu members
      | Value.Tuple bindings ->
        List.fold_left
          (fun accu (field, sub) -> walk accu (Path.child path field) sub)
          accu bindings
    in
    walk accu Path.root value
  in
  let violations =
    List.fold_left
      (fun accu store ->
        Relation.fold
          (fun key value accu ->
            check_object (Relation.name store) key value accu)
          store accu)
      [] (relations db)
  in
  List.rev violations
