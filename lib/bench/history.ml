(* The append-only perf trajectory (BENCH_HISTORY.jsonl).

   One JSON object per line, versioned per line so the format can evolve
   without invalidating old records:

     {"v":1,"seq":3,"source":"bench-diff","label":"scenarios",
      "metrics":{"committed":1005,...}}

   Appends render the whole line into a buffer and write it with a single
   output + flush (the Jsonl discipline): a run killed mid-append leaves
   complete lines only. Loads are tolerant: an undecodable line becomes a
   diagnostic, never a failed read — history written by a newer version
   still yields every record this version understands. *)

type record = {
  seq : int;
  source : string;
  label : string;
  metrics : (string * float) list;
}

let line_version = 1

let to_json record =
  Obs.Json.Obj
    [ ("v", Obs.Json.Int line_version);
      ("seq", Obs.Json.Int record.seq);
      ("source", Obs.Json.String record.source);
      ("label", Obs.Json.String record.label);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (key, value) ->
               ( key,
                 if Float.is_integer value && Float.abs value < 1e15 then
                   Obs.Json.Int (int_of_float value)
                 else Obs.Json.Float value ))
             record.metrics) ) ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match json with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some value -> Ok value
      | None -> Error (Printf.sprintf "missing %S field" name))
    | _ -> Error "expected an object"
  in
  let* version = field "v" in
  let* () =
    match version with
    | Obs.Json.Int v when v = line_version -> Ok ()
    | _ -> Error (Printf.sprintf "unsupported record version (want %d)" line_version)
  in
  let* seq = field "seq" in
  let* source = field "source" in
  let* label = field "label" in
  let* metrics = field "metrics" in
  match seq, source, label, metrics with
  | ( Obs.Json.Int seq,
      Obs.Json.String source,
      Obs.Json.String label,
      Obs.Json.Obj pairs ) ->
    let* metrics =
      List.fold_left
        (fun accu (key, value) ->
          let* accu = accu in
          match value with
          | Obs.Json.Int value -> Ok ((key, float_of_int value) :: accu)
          | Obs.Json.Float value -> Ok ((key, value) :: accu)
          | _ -> Error (Printf.sprintf "metric %S is not a number" key))
        (Ok []) pairs
    in
    Ok { seq; source; label; metrics = List.rev metrics }
  | _ -> Error "malformed history record"

let load path =
  match open_in path with
  | exception Sys_error _ -> ([], [])
  | channel ->
    let records = ref [] in
    let errors = ref [] in
    let line_number = ref 0 in
    (try
       while true do
         let line = input_line channel in
         incr line_number;
         if String.trim line <> "" then
           match Result.bind (Obs.Json.of_string line) of_json with
           | Ok record -> records := record :: !records
           | Error message ->
             errors :=
               Printf.sprintf "line %d: %s" !line_number message :: !errors
       done
     with End_of_file -> ());
    close_in_noerr channel;
    (List.rev !records, List.rev !errors)

let append ~path ~source ~label metrics =
  let records, _errors = load path in
  let seq =
    1 + List.fold_left (fun best record -> max best record.seq) 0 records
  in
  let record =
    { seq; source; label;
      metrics = List.sort (fun (a, _) (b, _) -> String.compare a b) metrics }
  in
  let channel =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr channel)
    (fun () ->
      let buffer = Buffer.create 256 in
      Obs.Json.add buffer (to_json record);
      Buffer.add_char buffer '\n';
      Buffer.output_buffer channel buffer;
      flush channel);
  record

(* ---------------------------------------------------------- trajectories *)

type point = {
  pt_seq : int;
  pt_value : float;
  pt_ewma : float;
  pt_anomalous : bool;
}

type trend = {
  t_source : string;
  t_label : string;
  t_metric : string;
  t_points : point list;
  t_median : float;
  t_mad : float;
  t_band : float;
  t_anomalies : int;
}

let median values =
  match List.sort Float.compare values with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let trends ?(alpha = 0.3) ?(k = 3.0) records =
  let module Triple_map = Map.Make (struct
    type t = string * string * string

    let compare = compare
  end) in
  let series =
    List.fold_left
      (fun map record ->
        List.fold_left
          (fun map (metric, value) ->
            let key = (record.source, record.label, metric) in
            let known =
              Option.value ~default:[] (Triple_map.find_opt key map)
            in
            Triple_map.add key ((record.seq, value) :: known) map)
          map record.metrics)
      Triple_map.empty records
  in
  Triple_map.bindings series
  |> List.map (fun ((t_source, t_label, t_metric), points) ->
         let points = List.rev points in
         let values = List.map snd points in
         let t_median = median values in
         let t_mad =
           median (List.map (fun value -> Float.abs (value -. t_median)) values)
         in
         (* a constant series has MAD 0; the floor keeps it from flagging
            last-ulp jitter as an anomaly while still catching real moves *)
         let t_band =
           Float.max (k *. 1.4826 *. t_mad)
             (1e-9 *. Float.max 1.0 (Float.abs t_median))
         in
         let t_points, t_anomalies =
           let _, reversed, anomalies =
             List.fold_left
               (fun (tracker, accu, anomalies) (pt_seq, pt_value) ->
                 match tracker with
                 | None ->
                   ( Some pt_value,
                     { pt_seq; pt_value; pt_ewma = pt_value;
                       pt_anomalous = false }
                     :: accu,
                     anomalies )
                 | Some ewma ->
                   let pt_anomalous = Float.abs (pt_value -. ewma) > t_band in
                   let next = (alpha *. pt_value) +. ((1.0 -. alpha) *. ewma) in
                   ( Some next,
                     { pt_seq; pt_value; pt_ewma = next; pt_anomalous }
                     :: accu,
                     if pt_anomalous then anomalies + 1 else anomalies ))
               (None, [], 0) points
           in
           (List.rev reversed, anomalies)
         in
         { t_source; t_label; t_metric; t_points; t_median; t_mad; t_band;
           t_anomalies })

let trend_to_json trend =
  Obs.Json.Obj
    [ ("source", Obs.Json.String trend.t_source);
      ("label", Obs.Json.String trend.t_label);
      ("metric", Obs.Json.String trend.t_metric);
      ("median", Obs.Json.Float trend.t_median);
      ("mad", Obs.Json.Float trend.t_mad);
      ("band", Obs.Json.Float trend.t_band);
      ("anomalies", Obs.Json.Int trend.t_anomalies);
      ( "points",
        Obs.Json.List
          (List.map
             (fun point ->
               Obs.Json.Obj
                 [ ("seq", Obs.Json.Int point.pt_seq);
                   ("value", Obs.Json.Float point.pt_value);
                   ("ewma", Obs.Json.Float point.pt_ewma);
                   ("anomalous", Obs.Json.Bool point.pt_anomalous) ])
             trend.t_points) ) ]
