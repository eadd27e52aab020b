(* Prometheus text exposition (format version 0.0.4) over a registry
   snapshot.

   Registry metric names may carry a label block inline — the monitor
   registers per-granule instruments as [window.lock_wait{lu="HoLU"}] — and
   this renderer splits the block back off, so every LU-labelled variant
   joins its base family under one # TYPE header.  Mapping:

     counter    colock_<name>_total               TYPE counter
     gauge      colock_<name>                     TYPE gauge
     histogram  colock_<name>{quantile="..."}     TYPE summary  (+_sum/_count)
     window     colock_<name>_rate/_p50/.../_count  TYPE gauge  (point-in-time)

   Windows are sliding, not cumulative, so they expose as plain gauges with
   quantile suffixes rather than as summaries. *)

let content_type = "text/plain; version=0.0.4; charset=utf-8"

let sanitize name =
  let buffer = Buffer.create (String.length name) in
  String.iteri
    (fun index char ->
      match char with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buffer char
      | '0' .. '9' ->
        (* a leading digit is kept but escaped, not erased — "9lives" and
           "8lives" must stay distinct families *)
        if index = 0 then Buffer.add_char buffer '_';
        Buffer.add_char buffer char
      | _ -> Buffer.add_char buffer '_')
    name;
  if Buffer.length buffer = 0 then "_" else Buffer.contents buffer

(* Label values may contain arbitrary bytes (scenario names become label
   values); the text exposition 0.0.4 spec requires backslash, double-quote
   and newline escaped inside quoted values. *)
let escape_label_value value =
  let buffer = Buffer.create (String.length value + 8) in
  String.iter
    (fun char ->
      match char with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '"' -> Buffer.add_string buffer "\\\""
      | '\n' -> Buffer.add_string buffer "\\n"
      | char -> Buffer.add_char buffer char)
    value;
  Buffer.contents buffer

let labelled name pairs =
  match pairs with
  | [] -> name
  | pairs ->
    name ^ "{"
    ^ String.concat ","
        (List.map
           (fun (key, value) ->
             Printf.sprintf "%s=\"%s\"" (sanitize key)
               (escape_label_value value))
           pairs)
    ^ "}"

(* Inverse of {!labelled} on one "{k=\"v\",...}" block: unescapes values, so
   a later render re-escapes exactly once. [None] on malformed blocks — the
   renderer then passes the block through verbatim (legacy behavior). *)
let parse_label_block block =
  let length = String.length block in
  if length < 2 || block.[0] <> '{' || block.[length - 1] <> '}' then None
  else begin
    let pairs = ref [] in
    let index = ref 1 in
    let stop = length - 1 in
    let malformed = ref false in
    while (not !malformed) && !index < stop do
      (* KEY= *)
      let key_start = !index in
      while !index < stop && block.[!index] <> '=' do incr index done;
      if !index >= stop || !index = key_start then malformed := true
      else begin
        let key = String.sub block key_start (!index - key_start) in
        incr index;
        if !index >= stop || block.[!index] <> '"' then malformed := true
        else begin
          (* "VALUE" with backslash escapes *)
          incr index;
          let value = Buffer.create 16 in
          let closed = ref false in
          while (not !closed) && (not !malformed) && !index < stop do
            match block.[!index] with
            | '"' ->
              closed := true;
              incr index
            | '\\' when !index + 1 < stop ->
              (match block.[!index + 1] with
               | '\\' -> Buffer.add_char value '\\'
               | '"' -> Buffer.add_char value '"'
               | 'n' -> Buffer.add_char value '\n'
               | other ->
                 Buffer.add_char value '\\';
                 Buffer.add_char value other);
              index := !index + 2
            | char ->
              Buffer.add_char value char;
              incr index
          done;
          if not !closed then malformed := true
          else begin
            pairs := (key, Buffer.contents value) :: !pairs;
            if !index < stop then
              if block.[!index] = ',' then incr index else malformed := true
          end
        end
      end
    done;
    if !malformed then None else Some (List.rev !pairs)
  end

(* Parsed label pairs when the block is well-formed; a raw passthrough
   otherwise. *)
type labels = Pairs of (string * string) list | Raw of string

(* ["window.lock_wait{lu=\"HoLU\"}"] -> ("window_lock_wait", Pairs [...]) *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (sanitize name, Pairs [])
  | Some brace ->
    let block = String.sub name brace (String.length name - brace) in
    ( sanitize (String.sub name 0 brace),
      match parse_label_block block with
      | Some pairs -> Pairs pairs
      | None -> Raw block )

let number value =
  if Float.is_nan value then "NaN"
  else if value = Float.infinity then "+Inf"
  else if value = Float.neg_infinity then "-Inf"
  else if Float.is_integer value && Float.abs value < 1e15 then
    Printf.sprintf "%.0f" value
  else Printf.sprintf "%.6g" value

(* Merge extra label pairs (e.g. quantile) into an existing label set and
   render the block, escaping every value. *)
let with_labels labels extra =
  match labels, extra with
  | Pairs [], [] -> ""
  | Pairs pairs, extra ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (key, value) ->
             Printf.sprintf "%s=\"%s\"" (sanitize key)
               (escape_label_value value))
           (pairs @ extra))
    ^ "}"
  | Raw block, [] -> block
  | Raw block, extra ->
    let inner = String.sub block 1 (String.length block - 2) in
    "{" ^ inner ^ ","
    ^ String.concat ","
        (List.map
           (fun (key, value) ->
             Printf.sprintf "%s=\"%s\"" (sanitize key)
               (escape_label_value value))
           extra)
    ^ "}"

type family = {
  f_name : string;  (* fully qualified, sans label block *)
  f_type : string;
  f_samples : (string * string * float) list;
      (* (suffix, label block, value) *)
}

let families ?(namespace = "colock") registry =
  let qualify base = namespace ^ "_" ^ base in
  let table : (string, family) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let add ~name ~type_ samples =
    let base, labels = split_labels name in
    let f_name = qualify base in
    let samples =
      List.map (fun (suffix, extra, value) ->
          (suffix, with_labels labels extra, value))
        samples
    in
    match Hashtbl.find_opt table f_name with
    | Some family ->
      Hashtbl.replace table f_name
        { family with f_samples = family.f_samples @ samples }
    | None ->
      Hashtbl.replace table f_name
        { f_name; f_type = type_; f_samples = samples };
      order := f_name :: !order
  in
  List.iter
    (fun (name, value) ->
      add ~name:(name ^ "_total") ~type_:"counter"
        [ ("", [], float_of_int value) ])
    (Registry.counters registry);
  List.iter
    (fun (name, value) -> add ~name ~type_:"gauge" [ ("", [], value) ])
    (Registry.gauges registry);
  List.iter
    (fun (name, histogram) ->
      add ~name ~type_:"summary"
        [ ("", [ ("quantile", "0.5") ], Histogram.quantile histogram 0.50);
          ("", [ ("quantile", "0.95") ], Histogram.quantile histogram 0.95);
          ("", [ ("quantile", "0.99") ], Histogram.quantile histogram 0.99);
          ("_sum", [], Histogram.sum histogram);
          ("_count", [], float_of_int (Histogram.count histogram)) ])
    (Registry.histograms registry);
  List.iter
    (fun (name, window) ->
      add ~name ~type_:"gauge"
        [ ("_count", [], float_of_int (Window.count window));
          ("_rate", [], Window.rate window);
          ("_p50", [], Window.quantile window 0.50);
          ("_p95", [], Window.quantile window 0.95);
          ("_p99", [], Window.quantile window 0.99);
          ("_max", [], Window.max_value window) ])
    (Registry.windows registry);
  List.rev !order
  |> List.map (fun f_name -> Hashtbl.find table f_name)
  |> List.sort (fun a b -> String.compare a.f_name b.f_name)

let render ?namespace registry =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun family ->
      Buffer.add_string buffer
        (Printf.sprintf "# TYPE %s %s\n" family.f_name family.f_type);
      List.iter
        (fun (suffix, labels, value) ->
          (* the suffix lands between the family name and its labels:
             colock_lock_wait_sum{lu="HoLU"} *)
          Buffer.add_string buffer
            (Printf.sprintf "%s%s%s %s\n" family.f_name suffix labels
               (number value)))
        family.f_samples)
    (families ?namespace registry);
  Buffer.contents buffer
