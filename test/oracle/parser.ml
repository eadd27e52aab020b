type error = { position : int; message : string }

let pp_error formatter { position; message } =
  Format.fprintf formatter "parse error at offset %d: %s" position message

type token =
  | T_ident of string  (** possibly dotted: "c.robots.robot_id" *)
  | T_string of string
  | T_int of int
  | T_real of float
  | T_comma
  | T_equals
  | T_eof

let token_text = function
  | T_ident text -> Printf.sprintf "identifier %S" text
  | T_string text -> Printf.sprintf "string '%s'" text
  | T_int number -> string_of_int number
  | T_real number -> string_of_float number
  | T_comma -> "','"
  | T_equals -> "'='"
  | T_eof -> "end of input"

exception Parse_failure of error

let fail position message = raise (Parse_failure { position; message })

(* ------------------------------------------------------------------ Lexer *)

let is_ident_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || Char.equal ch '_'

let is_ident_char ch = is_ident_start ch || (ch >= '0' && ch <= '9')
let is_digit ch = ch >= '0' && ch <= '9'

let tokenize input =
  let length = String.length input in
  let tokens = ref [] in
  let emit position token = tokens := (position, token) :: !tokens in
  let rec scan position =
    if position >= length then emit position T_eof
    else
      match input.[position] with
      | ' ' | '\t' | '\n' | '\r' -> scan (position + 1)
      | ',' ->
        emit position T_comma;
        scan (position + 1)
      | '=' ->
        emit position T_equals;
        scan (position + 1)
      | '\'' ->
        let rec find_close cursor =
          if cursor >= length then fail position "unterminated string literal"
          else if Char.equal input.[cursor] '\'' then cursor
          else find_close (cursor + 1)
        in
        let close = find_close (position + 1) in
        emit position (T_string (String.sub input (position + 1) (close - position - 1)));
        scan (close + 1)
      | ch when is_digit ch ->
        let rec span cursor seen_dot =
          if cursor < length && is_digit input.[cursor] then
            span (cursor + 1) seen_dot
          else if
            cursor + 1 < length
            && Char.equal input.[cursor] '.'
            && is_digit input.[cursor + 1]
            && not seen_dot
          then span (cursor + 1) true
          else (cursor, seen_dot)
        in
        let stop, is_real = span position false in
        let text = String.sub input position (stop - position) in
        if is_real then emit position (T_real (float_of_string text))
        else emit position (T_int (int_of_string text));
        scan stop
      | ch when is_ident_start ch ->
        (* dotted identifier: segments separated by '.' *)
        let rec span cursor =
          if cursor < length && is_ident_char input.[cursor] then
            span (cursor + 1)
          else if
            cursor + 1 < length
            && Char.equal input.[cursor] '.'
            && is_ident_start input.[cursor + 1]
          then span (cursor + 2)
          else cursor
        in
        let stop = span position in
        emit position (T_ident (String.sub input position (stop - position)));
        scan stop
      | ch -> fail position (Printf.sprintf "unexpected character %C" ch)
  in
  scan 0;
  List.rev !tokens

(* ----------------------------------------------------------------- Parser *)

type stream = { mutable tokens : (int * token) list }

let peek stream =
  match stream.tokens with
  | [] -> (0, T_eof)
  | head :: _ -> head

let advance stream =
  match stream.tokens with
  | [] -> ()
  | _ :: rest -> stream.tokens <- rest

let keyword_of text = String.lowercase_ascii text

let expect_keyword stream name =
  let position, token = peek stream in
  match token with
  | T_ident text when String.equal (keyword_of text) name -> advance stream
  | _ ->
    fail position
      (Printf.sprintf "expected keyword %s, found %s" (String.uppercase_ascii name)
         (token_text token))

let expect_plain_ident stream what =
  let position, token = peek stream in
  match token with
  | T_ident text when not (String.contains text '.') ->
    advance stream;
    text
  | _ ->
    fail position (Printf.sprintf "expected %s, found %s" what (token_text token))

let reserved =
  [ "select"; "from"; "in"; "where"; "and"; "for"; "read"; "update"; "delete" ]

let check_not_reserved position name =
  if List.mem (keyword_of name) reserved then
    fail position (Printf.sprintf "%S is a reserved word" name)

let split_dotted text =
  match String.split_on_char '.' text with
  | [] -> ("", [])
  | var :: path -> (var, path)

let parse_binding stream =
  let position, _token = peek stream in
  let var = expect_plain_ident stream "a variable name" in
  check_not_reserved position var;
  expect_keyword stream "in";
  let source_position, token = peek stream in
  match token with
  | T_ident text ->
    advance stream;
    let head, path = split_dotted text in
    if path = [] then { Ast.var; source = Ast.From_relation head }
    else { Ast.var; source = Ast.From_path (head, Nf2.Path.of_list path) }
  | _ ->
    fail source_position
      (Printf.sprintf "expected a relation or variable path, found %s"
         (token_text token))

let parse_literal stream =
  let position, token = peek stream in
  match token with
  | T_string text ->
    advance stream;
    Ast.L_str text
  | T_int number ->
    advance stream;
    Ast.L_int number
  | T_real number ->
    advance stream;
    Ast.L_real number
  | T_ident text when String.equal (keyword_of text) "true" ->
    advance stream;
    Ast.L_bool true
  | T_ident text when String.equal (keyword_of text) "false" ->
    advance stream;
    Ast.L_bool false
  | _ ->
    fail position
      (Printf.sprintf "expected a literal, found %s" (token_text token))

let parse_condition stream =
  let position, token = peek stream in
  match token with
  | T_ident text when String.contains text '.' ->
    advance stream;
    let var, path = split_dotted text in
    let equals_position, equals = peek stream in
    (match equals with
     | T_equals -> advance stream
     | _ ->
       fail equals_position
         (Printf.sprintf "expected '=', found %s" (token_text equals)));
    let value = parse_literal stream in
    { Ast.cond_var = var; cond_path = Nf2.Path.of_list path; value }
  | _ ->
    fail position
      (Printf.sprintf "expected a qualified attribute (var.path), found %s"
         (token_text token))

let parse_clause stream =
  expect_keyword stream "for";
  let position, token = peek stream in
  match token with
  | T_ident text -> (
    advance stream;
    match keyword_of text with
    | "read" -> Ast.For_read
    | "update" -> Ast.For_update
    | "delete" -> Ast.For_delete
    | other -> fail position (Printf.sprintf "unknown access clause %S" other))
  | _ ->
    fail position
      (Printf.sprintf "expected READ, UPDATE or DELETE, found %s"
         (token_text token))

let rec parse_separated stream parse_one =
  let first = parse_one stream in
  match peek stream with
  | _, T_comma ->
    advance stream;
    first :: parse_separated stream parse_one
  | _, _ -> [ first ]

let rec parse_and_separated stream parse_one =
  let first = parse_one stream in
  match peek stream with
  | _, T_ident text when String.equal (keyword_of text) "and" ->
    advance stream;
    first :: parse_and_separated stream parse_one
  | _, _ -> [ first ]

let parse input =
  match
    let stream = { tokens = tokenize input } in
    expect_keyword stream "select";
    let select_position, _token = peek stream in
    let select = expect_plain_ident stream "the selected variable" in
    check_not_reserved select_position select;
    expect_keyword stream "from";
    let bindings = parse_separated stream parse_binding in
    let where =
      match peek stream with
      | _, T_ident text when String.equal (keyword_of text) "where" ->
        advance stream;
        parse_and_separated stream parse_condition
      | _, _ -> []
    in
    let clause = parse_clause stream in
    let position, token = peek stream in
    (match token with
     | T_eof -> ()
     | _ ->
       fail position
         (Printf.sprintf "trailing input: %s" (token_text token)));
    { Ast.select; bindings; where; clause }
  with
  | ast -> Ok ast
  | exception Parse_failure error -> Error error
