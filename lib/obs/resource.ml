(* The escape byte starts a two-byte code: "\\\\" is a backslash, "\\/" a
   slash at either end of a step, "\\." the empty step. A slash inside a
   step is doubled. An encoded step thus never starts or ends with an
   unescaped slash, so a lone slash is a separator and an even run of
   slashes is half as many slashes inside a step. *)

let escape_byte = '\\'
let empty_step = "\\."

let special byte = byte = '/' || byte = escape_byte

let escape step =
  let last = String.length step - 1 in
  if last < 0 then empty_step
  else if not (String.exists special step) then step
  else begin
    let buffer = Buffer.create (String.length step + 4) in
    String.iteri
      (fun index byte ->
        match byte with
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '/' when index = 0 || index = last -> Buffer.add_string buffer "\\/"
        | '/' -> Buffer.add_string buffer "//"
        | _ -> Buffer.add_char buffer byte)
      step;
    Buffer.contents buffer
  end

let render steps = String.concat "/" (List.map escape steps)
let child parent step = parent ^ "/" ^ escape step

(* Bytes [start, stop) of an encoded step, decoded. *)
let decode name start stop =
  let buffer = Buffer.create (stop - start) in
  let rec copy index =
    if index < stop then
      match name.[index] with
      | '\\' when index + 1 < stop ->
        if name.[index + 1] <> '.' then Buffer.add_char buffer name.[index + 1];
        copy (index + 2)
      | '/' when index + 1 < stop && name.[index + 1] = '/' ->
        Buffer.add_char buffer '/';
        copy (index + 2)
      | byte ->
        Buffer.add_char buffer byte;
        copy (index + 1)
  in
  copy start;
  Buffer.contents buffer

(* A doubled slash lies inside a step; a lone one is a separator. *)
let fold_steps visit init name =
  let length = String.length name in
  let cut start stop plain =
    if plain then String.sub name start (stop - start) else decode name start stop
  in
  (* [start] opens the current step; [plain] says it holds no code *)
  let rec scan accu start index plain =
    if index >= length then visit accu (cut start length plain)
    else
      match name.[index] with
      | '/' ->
        if index + 1 < length && name.[index + 1] = '/' then
          scan accu start (index + 2) false
        else scan (visit accu (cut start index plain)) (index + 1) (index + 1) true
      | '\\' -> scan accu start (index + 2) false
      | _ -> scan accu start (index + 1) plain
  in
  scan init 0 0 true

let steps name = List.rev (fold_steps (fun accu step -> step :: accu) [] name)

let parent name =
  let length = String.length name in
  let rec scan index last =
    if index >= length then last
    else
      match name.[index] with
      | '/' ->
        if index + 1 < length && name.[index + 1] = '/' then scan (index + 2) last
        else scan (index + 1) (Some index)
      | '\\' -> scan (index + 2) last
      | _ -> scan (index + 1) last
  in
  Option.map (fun separator -> String.sub name 0 separator) (scan 0 None)

let is_strict_descendant ~ancestor name =
  let prefix = String.length ancestor in
  String.length name > prefix + 1
  && name.[prefix] = '/'
  && name.[prefix + 1] <> '/'
  && String.starts_with ~prefix:ancestor name
