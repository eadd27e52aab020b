module String_map = Map.Make (String)

type t = { schema : Schema.relation; mutable tuples : Value.t String_map.t }

type error =
  | Schema_error of Schema.error
  | Type_error of Value.type_error
  | No_key of string
  | Duplicate_key of string
  | Unknown_key of string
  | Key_changed of { key : string; changed_to : string }

let pp_error formatter = function
  | Schema_error schema_error ->
    Format.fprintf formatter "schema error: %a" Schema.pp_error schema_error
  | Type_error type_error ->
    Format.fprintf formatter "type error: %a" Value.pp_type_error type_error
  | No_key relation ->
    Format.fprintf formatter "object for %s has no renderable key" relation
  | Duplicate_key key -> Format.fprintf formatter "duplicate key %S" key
  | Unknown_key key -> Format.fprintf formatter "unknown key %S" key
  | Key_changed { key; changed_to } ->
    Format.fprintf formatter "an update may not change key %S to %S" key
      changed_to

let create schema =
  match Schema.validate schema with
  | Error schema_error -> Error (Schema_error schema_error)
  | Ok () -> Ok { schema; tuples = String_map.empty }

let schema rel = rel.schema
let name rel = rel.schema.Schema.rel_name

let checked_key rel value =
  match Value.typecheck_object rel.schema value with
  | Error type_error -> Error (Type_error type_error)
  | Ok () -> (
    match Value.key_of_object rel.schema value with
    | None -> Error (No_key rel.schema.Schema.rel_name)
    | Some key -> Ok key)

let insert rel value =
  match checked_key rel value with
  | Error _ as error -> error
  | Ok key ->
    if String_map.mem key rel.tuples then Error (Duplicate_key key)
    else begin
      rel.tuples <- String_map.add key value rel.tuples;
      Ok (Oid.make ~relation:(name rel) ~key)
    end

(* The version under [key] is found once. A free key is refused first,
   then a value whose key differs, before it is typechecked. A value with
   the same key is checked against the stored version, so only what
   changed is walked, and the check returns what the full check of
   [checked_key] returns. *)
let replace rel ~key value =
  match String_map.find_opt key rel.tuples with
  | None -> Error (Unknown_key key)
  | Some stored -> (
    match Value.key_of_object rel.schema value with
    | Some changed_to when not (String.equal changed_to key) ->
      Error (Key_changed { key; changed_to })
    | None -> (
      match Value.typecheck_object rel.schema value with
      | Error type_error -> Error (Type_error type_error)
      | Ok () -> Error (No_key rel.schema.Schema.rel_name))
    | Some _ -> (
      match Value.typecheck_replacement rel.schema ~stored value with
      | Error type_error -> Error (Type_error type_error)
      | Ok () ->
        rel.tuples <- String_map.add key value rel.tuples;
        Ok stored))

let delete rel key =
  if String_map.mem key rel.tuples then begin
    rel.tuples <- String_map.remove key rel.tuples;
    Ok ()
  end
  else Error (Unknown_key key)

let find rel key = String_map.find_opt key rel.tuples
let mem rel key = String_map.mem key rel.tuples
let cardinality rel = String_map.cardinal rel.tuples
let fold visit rel accu = String_map.fold visit rel.tuples accu
let keys rel = List.map fst (String_map.bindings rel.tuples)
let objects rel = String_map.bindings rel.tuples
