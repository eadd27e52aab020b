type t =
  | Str of string
  | Int of int
  | Real of float
  | Bool of bool
  | Ref of Oid.t
  | Set of t list
  | List of t list
  | Tuple of (string * t) list

let str text = Str text
let int number = Int number
let ref_to ~relation ~key = Ref (Oid.make ~relation ~key)

type type_error = { at : Path.t; expected : Schema.attr_type; found : t }

let rec pp formatter = function
  | Str text -> Format.fprintf formatter "%S" text
  | Int number -> Format.pp_print_int formatter number
  | Real number -> Format.pp_print_float formatter number
  | Bool flag -> Format.pp_print_bool formatter flag
  | Ref oid -> Format.fprintf formatter "ref(%a)" Oid.pp oid
  | Set members -> Format.fprintf formatter "{%a}" pp_members members
  | List members -> Format.fprintf formatter "[%a]" pp_members members
  | Tuple fields ->
    let pp_field formatter (name, value) =
      Format.fprintf formatter "%s: %a" name pp value
    in
    Format.fprintf formatter "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun formatter () -> Format.pp_print_string formatter ", ")
         pp_field)
      fields

and pp_members formatter members =
  Format.pp_print_list
    ~pp_sep:(fun formatter () -> Format.pp_print_string formatter "; ")
    pp formatter members

let pp_type_error formatter { at; expected; found } =
  Format.fprintf formatter "at %a: expected %a, found %a" Path.pp at
    Schema.pp_attr_type expected pp found

(* The one conformance walk, shared by the full check and the replacement
   check. [stored] is the version of [value] the store holds at the same
   position of the schema, and conforms to [attr]: stored values are
   immutable and were checked when stored, so a subtree of [value]
   physically equal to its stored counterpart conforms too and is not
   walked. Where there is no stored counterpart the walk pairs [value] with
   [absent], which no caller can hold, so nothing is skipped. Skipped
   subtrees hold no mismatch, so the walk finds the same first mismatch in
   the same order as a full walk.

   It allocates only on a mismatch: the error starts at the mismatching
   value with an empty path, and each tuple on the way back up prepends
   its field. *)
let absent = Str (String.make 1 '\000')

let mismatch expected found = Error { at = Path.root; expected; found }

let below field = function
  | Ok () as ok -> ok
  | Error error ->
    Error { error with at = Path.of_list (field :: Path.to_list error.at) }

let first = function stored :: _ -> stored | [] -> absent
let first_bound = function (_, stored) :: _ -> stored | [] -> absent
let after = function _ :: rest -> rest | [] -> []

let rec conform attr stored value =
  if value == stored then Ok ()
  else
    match attr, value with
    | Schema.Atomic Schema.Str, Str _
    | Schema.Atomic Schema.Int, Int _
    | Schema.Atomic Schema.Real, Real _
    | Schema.Atomic Schema.Bool, Bool _ ->
      Ok ()
    | Schema.Atomic (Schema.Ref target), Ref oid ->
      if String.equal (Oid.relation oid) target then Ok ()
      else mismatch attr value
    | Schema.Set inner, Set members | Schema.List inner, List members -> (
      match stored with
      | Set stored_members | List stored_members ->
        conform_members inner stored_members members
      | Str _ | Int _ | Real _ | Bool _ | Ref _ | Tuple _ ->
        conform_members inner [] members)
    | Schema.Tuple fields, Tuple bindings -> (
      match stored with
      | Tuple stored_bindings ->
        conform_fields attr value fields stored_bindings bindings
      | Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | List _ ->
        conform_fields attr value fields [] bindings)
    | Schema.Atomic _, (Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | List _ | Tuple _)
    | Schema.Set _, (Str _ | Int _ | Real _ | Bool _ | Ref _ | List _ | Tuple _)
    | Schema.List _, (Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | Tuple _)
    | Schema.Tuple _, (Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | List _)
      ->
      mismatch attr value

(* Members pair with the stored members by position, and fields with the
   stored bindings: a conforming stored tuple binds exactly the schema's
   fields, in order. A misnamed field or a missing or extra binding is a
   mismatch of the whole tuple. *)
and conform_members inner stored members =
  if members == stored then Ok ()
  else
    match members with
    | [] -> Ok ()
    | member :: rest -> (
      match conform inner (first stored) member with
      | Ok () -> conform_members inner (after stored) rest
      | Error _ as error -> error)

and conform_fields attr value fields stored bindings =
  match fields, bindings with
  | [], [] -> Ok ()
  | { Schema.field_name; field_type } :: fields_rest,
    (bound_name, bound_value) :: bindings_rest -> (
    if not (String.equal field_name bound_name) then mismatch attr value
    else
      match
        below field_name (conform field_type (first_bound stored) bound_value)
      with
      | Ok () -> conform_fields attr value fields_rest (after stored) bindings_rest
      | Error _ as error -> error)
  | _ :: _, [] | [], _ :: _ -> mismatch attr value

let typecheck attr value = conform attr absent value

let typecheck_object rel value =
  typecheck (Schema.Tuple rel.Schema.fields) value

let typecheck_replacement rel ~stored value =
  conform (Schema.Tuple rel.Schema.fields) stored value

let field value name =
  match value with
  | Tuple bindings -> List.assoc_opt name bindings
  | Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | List _ -> None

let render_atomic = function
  | Str text -> Some text
  | Int number -> Some (string_of_int number)
  | Real number -> Some (string_of_float number)
  | Bool flag -> Some (string_of_bool flag)
  | Ref _ | Set _ | List _ | Tuple _ -> None

let key_of_object rel value =
  match field value rel.Schema.key with
  | None -> None
  | Some key_value -> render_atomic key_value

let project value path =
  let rec walk values steps =
    match steps with
    | [] -> values
    | step :: rest ->
      let step_into value =
        match value with
        | Set members | List members -> walk members steps
        | Tuple _ -> (
          match field value step with
          | Some sub -> walk [ sub ] rest
          | None -> [])
        | Str _ | Int _ | Real _ | Bool _ | Ref _ -> []
      in
      List.concat_map step_into values
  in
  walk [ value ] (Path.to_list path)

let refs value =
  let rec collect accu = function
    | Ref oid -> oid :: accu
    | Str _ | Int _ | Real _ | Bool _ -> accu
    | Set members | List members -> List.fold_left collect accu members
    | Tuple bindings ->
      List.fold_left (fun accu (_name, sub) -> collect accu sub) accu bindings
  in
  List.rev (collect [] value)

let rec equal a b =
  match a, b with
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Ref x, Ref y -> Oid.equal x y
  | Set xs, Set ys | List xs, List ys -> List.equal equal xs ys
  | Tuple xs, Tuple ys ->
    List.equal
      (fun (name_x, value_x) (name_y, value_y) ->
        String.equal name_x name_y && equal value_x value_y)
      xs ys
  | (Str _ | Int _ | Real _ | Bool _ | Ref _ | Set _ | List _ | Tuple _), _ ->
    false
