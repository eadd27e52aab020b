(* The query parser against its oracle: the parser as it stood before its
   lexer compared keywords in place (test/oracle/parser.ml, a verbatim
   test-only copy). Generated statements mix keyword case, whitespace,
   reserved words used as names, dotted paths, string, int and real
   literals, and dropped or stray tokens; both parsers must return the same
   AST or the same error (offset and message). The one allowed difference
   is an integer literal beyond [max_int]: the oracle raises
   [Failure "int_of_string"], the parser reports a parse error at the
   literal. *)

module Oracle = Parser_oracle.Parser

let keywords =
  [ "select"; "from"; "in"; "where"; "and"; "for"; "read"; "update"; "delete";
    "true"; "false" ]

let random_case word =
  QCheck.Gen.(
    let* flips = list_repeat (String.length word) bool in
    return
      (String.concat ""
         (List.mapi
            (fun index upper ->
              let ch = word.[index] in
              String.make 1
                (if upper then Char.uppercase_ascii ch else Char.lowercase_ascii ch))
            flips)))

let keyword word = random_case word

let name =
  QCheck.Gen.(
    frequency
      [ (12, oneofl [ "c"; "r"; "o"; "e"; "x1"; "_y"; "cells"; "robots" ]);
        (1, oneofl keywords >>= random_case) ])

let dotted =
  QCheck.Gen.(
    let* head = name in
    let* steps = list_size (int_range 1 3) name in
    return (String.concat "." (head :: steps)))

let literal =
  QCheck.Gen.(
    frequency
      [ (3, map (Printf.sprintf "'%s'") (oneofl [ "c1"; ""; "a b"; "SELECT"; "x.y" ]));
        (3, map string_of_int (int_range 0 99_999));
        (1,
         oneofl
           [ "007"; "4611686018427387903"; "4611686018427387904";
             "99999999999999999999"; "123456789012345678901234567890" ]);
        (2, oneofl [ "1.5"; "0.25"; "3.14159"; "10.0"; "1.2.3"; "12." ]);
        (1, oneofl [ "true"; "FALSE"; "True" ]) ])

let condition =
  QCheck.Gen.(
    let* path = dotted in
    let* value = literal in
    return [ path; "="; value ])

let binding =
  QCheck.Gen.(
    let* var = name in
    let* in_ = keyword "in" in
    let* source = frequency [ (2, name); (1, dotted) ] in
    return [ var; in_; source ])

let rec interleave separator = function
  | [] -> []
  | [ last ] -> [ last ]
  | first :: rest -> first :: separator :: interleave separator rest

let statement_tokens =
  QCheck.Gen.(
    let* select = keyword "select" in
    let* selected = name in
    let* from = keyword "from" in
    let* bindings = list_size (int_range 1 3) binding in
    let* conditions = list_size (int_range 0 3) condition in
    let* where = keyword "where" in
    let* and_ = keyword "and" in
    let* for_ = keyword "for" in
    let* clause =
      frequency [ (6, oneofl [ "read"; "update"; "delete" ]); (1, return "write") ]
      >>= random_case
    in
    let where_part =
      match conditions with
      | [] -> []
      | _ :: _ -> where :: List.concat (interleave [ and_ ] conditions)
    in
    return
      ([ select; selected; from ]
      @ List.concat (interleave [ "," ] bindings)
      @ where_part @ [ for_; clause ]))

(* Drop a token, add a stray one, or leave the statement well formed. *)
let perturbed =
  QCheck.Gen.(
    let* tokens = statement_tokens in
    let count = List.length tokens in
    let* position = int_range 0 count in
    let* stray =
      oneofl [ ","; "="; "."; "#"; "'"; "FOR"; "select"; "42"; "c.x"; "'s'" ]
    in
    frequency
      [ (3, return tokens);
        (1, return (List.filteri (fun index _ -> index <> position) tokens));
        (1,
         return
           (List.concat
              (List.mapi
                 (fun index token ->
                   if index = position then [ stray; token ] else [ token ])
                 tokens)
           @ if position = count then [ stray ] else [])) ])

let statement =
  QCheck.Gen.(
    let* tokens = perturbed in
    let* separators =
      list_repeat (List.length tokens)
        (frequency
           [ (24, return " "); (3, return "  "); (3, return "\t");
             (3, return "\n"); (3, return "\r\n"); (1, return "") ])
    in
    let* leading = oneofl [ ""; " "; "\n" ] in
    return
      (leading
      ^ String.concat ""
          (List.concat (List.map2 (fun token gap -> [ token; gap ]) tokens separators))))

let offset_of_out_of_range text position =
  let stop = ref position in
  while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
    incr stop
  done;
  !stop > position
  && (position = 0
     || not
          (let before = text.[position - 1] in
           (before >= '0' && before <= '9') || before = '.'))
  && Option.is_none (int_of_string_opt (String.sub text position (!stop - position)))

let prop_parser_matches_oracle =
  QCheck.Test.make ~name:"parser: same AST or error as the oracle" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") statement)
    (fun text ->
      let actual =
        Result.map_error
          (fun { Query.Parser.position; message } -> (position, message))
          (Query.Parser.parse text)
      in
      match Oracle.parse text with
      | expected ->
        let expected =
          Result.map_error
            (fun { Oracle.position; message } -> (position, message))
            expected
        in
        expected = actual
      | exception Failure _ -> (
        match actual with
        | Error (position, message) ->
          String.starts_with ~prefix:"integer literal" message
          && offset_of_out_of_range text position
        | Ok _ -> false))

(* The paper's queries and the error cases of test_query, spelled out. *)
let test_known_statements () =
  List.iter
    (fun text ->
      let render = function
        | Ok ast -> Format.asprintf "ok %a" Query.Ast.pp ast
        | Error (position, message) -> Printf.sprintf "error %d %s" position message
      in
      let actual =
        Result.map_error
          (fun { Query.Parser.position; message } -> (position, message))
          (Query.Parser.parse text)
      and expected =
        Result.map_error
          (fun { Oracle.position; message } -> (position, message))
          (Oracle.parse text)
      in
      Alcotest.(check string) text (render expected) (render actual))
    [ "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";
      "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
       r.robot_id = 'r1' FOR UPDATE";
      "select c from c in cells where c.x = 1.5 and c.y = true for delete";
      ""; "SELECT FROM c IN cells FOR READ"; "SELECT c FROM c IN cells";
      "SELECT c FROM c IN cells FOR WRITE"; "SELECT c FROM c IN cells FOR Write";
      "SELECT c FROM c IN cells WHERE c.x 'v' FOR READ";
      "SELECT c FROM c IN cells WHERE c.x = 'unterminated FOR READ";
      "SELECT c FROM c IN cells FOR READ trailing";
      "SELECT select FROM select IN cells FOR READ";
      "SELECT c FROM c IN cells WHERE c.x = 1.2.3 FOR READ";
      "SELECT c FROM c IN cells WHERE c.x = # FOR READ" ]

let () =
  Alcotest.run "parser"
    [ ("oracle",
       Alcotest.test_case "known statements" `Quick test_known_statements
       :: List.map QCheck_alcotest.to_alcotest [ prop_parser_matches_oracle ])
    ]
