(** The resource codec: how a lockable unit's path of containment steps is
    written as the lock-table key that every event, trace and fold carries.

    Steps are joined by a single ['/']. Inside a step:
    - a ['/'] is doubled (["//"]), except at either end of the step, where
      it is written ["\\/"];
    - the escape byte ['\\'] is written ["\\\\"];
    - the empty step is written ["\\."];
    - every other byte is written as is.

    So a step with no ['/'] and no ['\\'] renders byte for byte
    ([["db1"; "seg1"; "cells"; "c1"]] is ["db1/seg1/cells/c1"]), and so does
    a slash inside a step (the reference member ["effectors/e1"] is
    ["effectors//e1"]). An encoded step never starts or ends with an
    unescaped ['/'], so a lone ['/'] is a separator and an even run of them
    lies inside a step. Distinct non-empty step lists therefore render to
    distinct names, and {!steps} inverts {!render}. *)

val render : string list -> string
(** Root-first steps to a resource name. The list must not be empty. *)

val child : string -> string -> string
(** [child (render steps) step = render (steps @ [ step ])], in one
    concatenation. *)

val steps : string -> string list
(** The steps of a rendered name: [steps (render s) = s]. *)

val fold_steps : ('accu -> string -> 'accu) -> 'accu -> string -> 'accu
(** {!steps} folded root first, without building the list. *)

val parent : string -> string option
(** The name of the parent path: everything before the last separator;
    [None] for a one-step name. *)

val is_strict_descendant : ancestor:string -> string -> bool
(** Whether the name lies strictly below [ancestor] (itself a rendered
    name) along containment steps. *)
