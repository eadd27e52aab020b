(** A minimal JSON document type, serializer and parser.

    The observability layer emits JSONL event streams, Chrome trace files and
    metrics snapshots; this module is the single encoder all of them share
    (the container carries no JSON library). Reports, Chrome traces,
    history and baselines build a {!t}; trace lines skip the tree and call
    the value appenders ({!add_quoted}, {!add_int}, {!add_float}) from
    {!Event.add_line}. The parser exists for the
    offline side of the same pipeline — [colock analyze] reading a JSONL
    trace back into {!Event.t}s. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val add : ?indent:int -> Buffer.t -> t -> unit
(** Appends the encoding to the buffer. [indent = 0] (default) produces a
    single line; a positive indent pretty-prints with that many spaces per
    level. Integral floats below 1e15 in magnitude print as integers;
    non-finite floats encode as [null]. Apart from non-integral floats,
    encoding allocates nothing beyond the buffer's own growth. *)

val add_quoted : Buffer.t -> string -> unit
(** A string value: quoted, with the quote, the backslash and the control
    bytes escaped; every other byte, UTF-8 included, goes in as is. *)

val add_int : Buffer.t -> int -> unit

val add_float : Buffer.t -> float -> unit
(** As {!add} writes a [Float]: integral values below 1e15 in magnitude as
    integers ([-0.0] as [-0]), other finite ones as [%.6g], non-finite
    ones as [null]. *)

val to_string : ?indent:int -> t -> string
(** {!add} into a fresh buffer. *)

val output : ?indent:int -> out_channel -> t -> unit
(** {!add} into a fresh buffer written in one piece; no flush. *)

val of_string : string -> (t, string) result
(** Parses one JSON document. Numbers without a fractional part or exponent
    decode as [Int]; the rest as [Float] — mirroring the encoder's split.
    Trailing non-whitespace input is an error. *)
