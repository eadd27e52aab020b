(* What one run reports: metrics in order, output-check failures, and
   diagnostic lines that are printed but are not metrics. *)

type t = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; failures = []; attempted = 0; failed = 0 }
let metric report name ~unit value = report.metrics <- (name, value, unit) :: report.metrics

let check report condition message =
  if not condition then report.failures <- message :: report.failures

(* Files a run leaves behind (spans, the JSONL capture) go under one
   ignored directory of the working directory. *)
let output_file name =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  Filename.concat ".perfbench" name

let note fmt = Printf.ksprintf (fun line -> print_endline ("# " ^ line)) fmt

(* The wall-clock figures behind the host-normalized metrics. *)
let note_wall_clock batches ~setup_s =
  note
    "wall clock: txn/s median %.1f over %d batches, set-up median %.4f s; \
     batch probe median %.3f ms against the %.1f ms reference"
    (Measure.raw_median_rate batches) batches.Measure.filled setup_s
    (Measure.median_probe_ms batches) Measure.reference_probe_ms

let ratio numerator denominator =
  if denominator = 0 then 0.0
  else float_of_int numerator /. float_of_int denominator

(* JSON numbers keep every digit the float carries. *)
let json_number value =
  if Float.is_integer value && Float.abs value < 1e15 then
    Printf.sprintf "%.1f" value
  else Printf.sprintf "%.17g" value

let print report =
  List.iter (fun failure -> note "CHECK FAILED: %s" failure)
    (List.rev report.failures);
  let metrics =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      report.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (report.failures = []) report.attempted report.failed
    (String.concat ", " metrics)
