type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The serializer appends straight into the caller's buffer: no
   intermediate strings per key, value or number, so a JSONL sink pays for
   the bytes of a line and little else. *)

let hex_digits = "0123456789abcdef"

(* Copies [text] from [start] in runs between the bytes that need
   escaping; a string with none goes in as one [add_substring]. *)
let rec add_escaped buffer text start index =
  if index = String.length text then
    Buffer.add_substring buffer text start (index - start)
  else
    match String.unsafe_get text index with
    | ('"' | '\\' | '\000' .. '\031') as char ->
      Buffer.add_substring buffer text start (index - start);
      (match char with
       | '"' -> Buffer.add_string buffer "\\\""
       | '\\' -> Buffer.add_string buffer "\\\\"
       | '\n' -> Buffer.add_string buffer "\\n"
       | '\r' -> Buffer.add_string buffer "\\r"
       | '\t' -> Buffer.add_string buffer "\\t"
       | char ->
         Buffer.add_string buffer "\\u00";
         Buffer.add_char buffer hex_digits.[Char.code char lsr 4];
         Buffer.add_char buffer hex_digits.[Char.code char land 0xf]);
      add_escaped buffer text (index + 1) (index + 1)
    | _ -> add_escaped buffer text start (index + 1)

let add_quoted buffer text =
  Buffer.add_char buffer '"';
  add_escaped buffer text 0 0;
  Buffer.add_char buffer '"'

(* Digits of [-n] for [n <= 0]: working on the negative side keeps
   [min_int] in range. *)
let rec add_negated_digits buffer n =
  if n <= -10 then add_negated_digits buffer (n / 10);
  Buffer.add_char buffer (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buffer n =
  if n < 0 then begin
    Buffer.add_char buffer '-';
    add_negated_digits buffer n
  end
  else add_negated_digits buffer (-n)

(* Integral floats render without a fractional part so counters exported as
   floats stay readable; below 1e15 they convert to [int] exactly, and
   [-0.0] keeps its sign as [-0]. Non-finite values have no JSON spelling
   and become null. *)
let add_float buffer value =
  if not (Float.is_finite value) then Buffer.add_string buffer "null"
  else if Float.is_integer value && Float.abs value < 1e15 then
    if value = 0.0 && Float.sign_bit value then Buffer.add_string buffer "-0"
    else add_int buffer (Float.to_int value)
  else Buffer.add_string buffer (Printf.sprintf "%.6g" value)

let add_newline buffer ~indent ~level =
  if indent > 0 then begin
    Buffer.add_char buffer '\n';
    for _ = 1 to level * indent do
      Buffer.add_char buffer ' '
    done
  end

let rec add_value buffer ~indent ~level json =
  match json with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int n -> add_int buffer n
  | Float f -> add_float buffer f
  | String s -> add_quoted buffer s
  | List [] -> Buffer.add_string buffer "[]"
  | List (item :: items) ->
    Buffer.add_char buffer '[';
    add_item buffer ~indent ~level:(level + 1) item;
    add_items buffer ~indent ~level:(level + 1) items;
    add_newline buffer ~indent ~level;
    Buffer.add_char buffer ']'
  | Obj [] -> Buffer.add_string buffer "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buffer '{';
    add_field buffer ~indent ~level:(level + 1) field;
    add_fields buffer ~indent ~level:(level + 1) fields;
    add_newline buffer ~indent ~level;
    Buffer.add_char buffer '}'

and add_item buffer ~indent ~level item =
  add_newline buffer ~indent ~level;
  add_value buffer ~indent ~level item

and add_items buffer ~indent ~level = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buffer ',';
    add_item buffer ~indent ~level item;
    add_items buffer ~indent ~level items

and add_field buffer ~indent ~level (key, value) =
  add_newline buffer ~indent ~level;
  add_quoted buffer key;
  Buffer.add_string buffer ": ";
  add_value buffer ~indent ~level value

and add_fields buffer ~indent ~level = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buffer ',';
    add_field buffer ~indent ~level field;
    add_fields buffer ~indent ~level fields

let add ?(indent = 0) buffer json = add_value buffer ~indent ~level:0 json

let to_string ?(indent = 0) json =
  let buffer = Buffer.create 256 in
  add ~indent buffer json;
  Buffer.contents buffer

let output ?(indent = 0) channel json =
  let buffer = Buffer.create 4096 in
  add ~indent buffer json;
  Buffer.output_buffer channel buffer

(* ------------------------------------------------------------- parsing *)

(* Recursive-descent parser for the subset this module emits (which is all
   of standard JSON).  Numbers without '.', 'e' or 'E' decode as [Int];
   everything else numeric decodes as [Float], mirroring the encoder's
   Int/Float split. *)

exception Parse_error of string

let of_string text =
  let length = String.length text in
  let pos = ref 0 in
  let fail message = raise (Parse_error message) in
  let peek () = if !pos < length then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < length
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect char =
    match peek () with
    | Some c when c = char -> advance ()
    | Some c -> fail (Printf.sprintf "expected %C, found %C" char c)
    | None -> fail (Printf.sprintf "expected %C, found end of input" char)
  in
  let literal word value =
    let stop = !pos + String.length word in
    if stop <= length && String.sub text !pos (String.length word) = word then begin
      pos := stop;
      value
    end
    else fail (Printf.sprintf "invalid literal, expected %S" word)
  in
  let parse_hex4 () =
    if !pos + 4 > length then fail "truncated \\u escape";
    let code = ref 0 in
    for _ = 1 to 4 do
      let digit =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail (Printf.sprintf "invalid hex digit %C" c)
      in
      code := (!code * 16) + digit;
      advance ()
    done;
    !code
  in
  let add_utf8 buffer code =
    (* Escaped code points re-encode as UTF-8 bytes; surrogates and
       astral-plane pairs are out of scope for trace data. *)
    if code < 0x80 then Buffer.add_char buffer (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buffer (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buffer (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | None -> fail "unterminated escape"
         | Some '"' -> Buffer.add_char buffer '"'; advance ()
         | Some '\\' -> Buffer.add_char buffer '\\'; advance ()
         | Some '/' -> Buffer.add_char buffer '/'; advance ()
         | Some 'b' -> Buffer.add_char buffer '\b'; advance ()
         | Some 'f' -> Buffer.add_char buffer '\012'; advance ()
         | Some 'n' -> Buffer.add_char buffer '\n'; advance ()
         | Some 'r' -> Buffer.add_char buffer '\r'; advance ()
         | Some 't' -> Buffer.add_char buffer '\t'; advance ()
         | Some 'u' ->
           advance ();
           add_utf8 buffer (parse_hex4 ())
         | Some c -> fail (Printf.sprintf "invalid escape \\%C" c));
        loop ()
      | Some c ->
        Buffer.add_char buffer c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let consume () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); true
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        true
      | _ -> false
    in
    while consume () do () done;
    let repr = String.sub text start (!pos - start) in
    if !is_float then
      match float_of_string_opt repr with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" repr)
    else
      match int_of_string_opt repr with
      | Some n -> Int n
      | None -> (
        match float_of_string_opt repr with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "invalid number %S" repr))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let parse_field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ parse_field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := parse_field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos < length then fail "trailing garbage after document";
    value
  with
  | value -> Ok value
  | exception Parse_error message -> Error message
