(** Hand-written lexer and recursive-descent parser for the query dialect. *)

type error = { position : int; message : string }
(** [position] is a 0-based character offset into the input. *)

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ast.t, error) result
(** Keywords are case-insensitive; string literals are single-quoted. An
    integer literal beyond [max_int] is an error at the literal's offset
    ("integer literal ... is out of range"), like any other lexical error:
    the whole input is lexed before parsing, so the first lexical error wins
    over any syntax error. Parsing never raises.

    Keywords and reserved words are compared in place, ignoring case, with
    no lowercased copy of the input; the lexer allocates only the tokens. *)
