module Table = Hashtbl.Make (String)
module String_set = Set.Make (String)

type t = {
  relation : string;
  path : Path.t;
  entries : String_set.t Table.t;  (* rendered value -> object keys *)
}

let path index = index.path
let relation index = index.relation

let renderings value object_path =
  List.filter_map Value.render_atomic (Value.project value object_path)

let add_key index ~key rendering =
  let keys =
    match Table.find_opt index.entries rendering with
    | Some keys -> keys
    | None -> String_set.empty
  in
  Table.replace index.entries rendering (String_set.add key keys)

let remove_key index ~key rendering =
  match Table.find_opt index.entries rendering with
  | None -> ()
  | Some keys ->
    let keys = String_set.remove key keys in
    if String_set.is_empty keys then Table.remove index.entries rendering
    else Table.replace index.entries rendering keys

let insert_entries index ~key value =
  List.iter (add_key index ~key) (renderings value index.path)

let remove_entries index ~key value =
  List.iter (remove_key index ~key) (renderings value index.path)

let replace_entries index ~key ~before value =
  if before != value then begin
    let removed = renderings before index.path in
    let added = renderings value index.path in
    if not (List.equal String.equal removed added) then begin
      List.iter (remove_key index ~key) removed;
      List.iter (add_key index ~key) added
    end
  end

let build store index_path =
  let schema = Relation.schema store in
  match Schema.find_attr schema index_path with
  | Some (Schema.Atomic _) ->
    let index =
      { relation = Relation.name store; path = index_path;
        entries = Table.create (max 16 (Relation.cardinality store)) }
    in
    Relation.fold
      (fun key value () -> insert_entries index ~key value)
      store ();
    Ok index
  | Some (Schema.Set _ | Schema.List _ | Schema.Tuple _) ->
    Error
      (Printf.sprintf "index path %s is not atomic" (Path.to_string index_path))
  | None ->
    Error
      (Printf.sprintf "relation %s has no attribute %s" (Relation.name store)
         (Path.to_string index_path))

let lookup index probe =
  match Value.render_atomic probe with
  | None -> []
  | Some rendering -> (
    match Table.find_opt index.entries rendering with
    | None -> []
    | Some keys -> String_set.elements keys)

let cardinality index = Table.length index.entries
