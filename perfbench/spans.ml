(* In-memory span recorder for the traced run.

   Every public call the benchmark makes into the library runs inside
   [wrap]. A span records its name, start, end and parent; a layer's self
   time is its span minus the time its child spans cover, accumulated per
   name as spans close. Spans are kept in memory (up to [keep] of them) and
   written out once, when the run ends. *)

type t = {
  name_ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable self_ns : int array;
  mutable calls : int array;
  keep : int;
  mutable span_name : int array;
  mutable span_parent : int array;
  mutable span_start : int array;
  mutable span_end : int array;
  mutable recorded : int;
  mutable dropped : int;
  (* open spans: recorded index (or -1), start, time covered by children *)
  mutable open_index : int array;
  mutable open_start : int array;
  mutable open_child : int array;
  mutable open_name : int array;
  mutable depth : int;
}

let create ?(keep = 200_000) () =
  { name_ids = Hashtbl.create 64; names = [||]; self_ns = [||]; calls = [||];
    keep; span_name = [||]; span_parent = [||]; span_start = [||];
    span_end = [||]; recorded = 0; dropped = 0; open_index = Array.make 64 0;
    open_start = Array.make 64 0; open_child = Array.make 64 0;
    open_name = Array.make 64 0; depth = 0 }

let grow array size = Array.append array (Array.make (max 16 size) 0)

let name t label =
  match Hashtbl.find_opt t.name_ids label with
  | Some id -> id
  | None ->
    let id = Array.length t.names in
    Hashtbl.replace t.name_ids label id;
    t.names <- Array.append t.names [| label |];
    t.self_ns <- Array.append t.self_ns [| 0 |];
    t.calls <- Array.append t.calls [| 0 |];
    id

let enter t id =
  let depth = t.depth in
  if depth = Array.length t.open_index then failwith "Spans: nesting too deep";
  let index =
    if t.recorded < t.keep then begin
      if t.recorded = Array.length t.span_name then begin
        let size = Array.length t.span_name in
        t.span_name <- grow t.span_name size;
        t.span_parent <- grow t.span_parent size;
        t.span_start <- grow t.span_start size;
        t.span_end <- grow t.span_end size
      end;
      let index = t.recorded in
      t.recorded <- index + 1;
      t.span_name.(index) <- id;
      t.span_parent.(index) <- (if depth = 0 then -1 else t.open_index.(depth - 1));
      index
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.open_index.(depth) <- index;
  t.open_name.(depth) <- id;
  t.open_child.(depth) <- 0;
  t.depth <- depth + 1;
  let start = Measure.now_ns () in
  t.open_start.(depth) <- start;
  if index >= 0 then t.span_start.(index) <- start

let leave t =
  let stop = Measure.now_ns () in
  let depth = t.depth - 1 in
  t.depth <- depth;
  let id = t.open_name.(depth) in
  let duration = stop - t.open_start.(depth) in
  t.self_ns.(id) <- t.self_ns.(id) + duration - t.open_child.(depth);
  t.calls.(id) <- t.calls.(id) + 1;
  let index = t.open_index.(depth) in
  if index >= 0 then t.span_end.(index) <- stop;
  if depth > 0 then t.open_child.(depth - 1) <- t.open_child.(depth - 1) + duration

let wrap t id f =
  enter t id;
  match f () with
  | result ->
    leave t;
    result
  | exception error ->
    leave t;
    raise error

let self_seconds t label =
  match Hashtbl.find_opt t.name_ids label with
  | Some id -> float_of_int t.self_ns.(id) /. 1e9
  | None -> 0.0

let calls t label =
  match Hashtbl.find_opt t.name_ids label with
  | Some id -> t.calls.(id)
  | None -> 0

(* Mean self time per call, in [scale] units per second (1e9 for ns). *)
let mean_self t label ~scale =
  match calls t label with
  | 0 -> 0.0
  | count -> self_seconds t label *. scale /. float_of_int count

(* One line per recorded span: index, name, parent index (-1 at the top),
   start and end in monotonic nanoseconds. *)
let write t path =
  let channel = open_out path in
  Printf.fprintf channel "# spans recorded=%d dropped=%d\n" t.recorded
    t.dropped;
  Printf.fprintf channel "index\tname\tparent\tstart_ns\tend_ns\n";
  for index = 0 to t.recorded - 1 do
    Printf.fprintf channel "%d\t%s\t%d\t%d\t%d\n" index
      t.names.(t.span_name.(index))
      t.span_parent.(index) t.span_start.(index) t.span_end.(index)
  done;
  close_out channel

(* A span wrapper usable at any result type, so set-up code can be shared
   between the untraced and the traced run. *)
type scope = { within : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { within = (fun _label f -> f ()) }
let scope t = { within = (fun label f -> wrap t (name t label) f) }
