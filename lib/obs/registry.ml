type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  windows : (string, Window.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; histograms = Hashtbl.create 8;
    gauges = Hashtbl.create 8; windows = Hashtbl.create 8 }

let counter_ref registry name =
  match Hashtbl.find_opt registry.counters name with
  | Some cell -> cell
  | None ->
    let cell = ref 0 in
    Hashtbl.replace registry.counters name cell;
    cell

let incr ?(by = 1) registry name =
  let cell = counter_ref registry name in
  cell := !cell + by

let counter registry name =
  match Hashtbl.find_opt registry.counters name with
  | Some cell -> !cell
  | None -> 0

let histogram registry name =
  match Hashtbl.find_opt registry.histograms name with
  | Some histogram -> histogram
  | None ->
    let histogram = Histogram.create () in
    Hashtbl.replace registry.histograms name histogram;
    histogram

let observe registry name value = Histogram.observe (histogram registry name) value

let find_histogram registry name = Hashtbl.find_opt registry.histograms name

let set_gauge registry name value =
  match Hashtbl.find_opt registry.gauges name with
  | Some cell -> cell := value
  | None -> Hashtbl.replace registry.gauges name (ref value)

let gauge_value registry name =
  match Hashtbl.find_opt registry.gauges name with
  | Some cell -> !cell
  | None -> 0.0

(* The span is fixed at creation: a later [window] call with a different
   [?span] returns the existing window unchanged (same get-or-create
   contract as [histogram]). *)
let window ?(span = 1000.0) registry name =
  match Hashtbl.find_opt registry.windows name with
  | Some window -> window
  | None ->
    let window = Window.create ~span () in
    Hashtbl.replace registry.windows name window;
    window

let find_window registry name = Hashtbl.find_opt registry.windows name

let sorted_bindings table =
  Hashtbl.fold (fun name value accu -> (name, value) :: accu) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters registry =
  List.map (fun (name, cell) -> (name, !cell)) (sorted_bindings registry.counters)

let gauges registry =
  List.map (fun (name, cell) -> (name, !cell)) (sorted_bindings registry.gauges)

let histograms registry = sorted_bindings registry.histograms
let windows registry = sorted_bindings registry.windows

let reset registry =
  Hashtbl.iter (fun _name cell -> cell := 0) registry.counters;
  Hashtbl.iter (fun _name histogram -> Histogram.reset histogram) registry.histograms;
  Hashtbl.iter (fun _name cell -> cell := 0.0) registry.gauges;
  Hashtbl.iter (fun _name window -> Window.reset window) registry.windows

let row registry =
  List.map (fun (name, value) -> (name, float_of_int value)) (counters registry)
  @ gauges registry
  @ List.concat_map
      (fun (name, histogram) -> Histogram.row ~prefix:name histogram)
      (histograms registry)
  @ List.concat_map
      (fun (name, window) -> Window.row ~prefix:name window)
      (windows registry)

(* Bucket cells ride next to the flat row as ["<name>_buckets"] keys, each a
   list of [lower_bound, count] pairs: quantile summaries stay greppable
   floats while plots can rebuild the full distribution. *)
let bucket_fields registry =
  List.filter_map
    (fun (name, histogram) ->
      match Histogram.bucket_counts histogram with
      | [] -> None
      | cells ->
        Some
          ( name ^ "_buckets",
            Json.List
              (List.map
                 (fun (lower, count) ->
                   Json.List [ Json.Float lower; Json.Int count ])
                 cells) ))
    (histograms registry)

let to_json registry =
  Json.Obj
    (List.map (fun (name, value) -> (name, Json.Float value)) (row registry)
     @ bucket_fields registry)
