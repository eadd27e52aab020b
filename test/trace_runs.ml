(* Folds a trace run by run through [Obs.Jsonl.read_runs], the reader the
   colock commands use, so a test splits runs exactly as they do. An
   in-memory event list is written to a temporary JSONL file first. *)

let reports ?on_error ~start ~push ~finish path =
  let reports = ref [] in
  let (_ : Obs.Jsonl.summary) =
    Obs.Jsonl.read_runs ?on_error path
      ~start:(fun _label -> start ())
      ~push
      ~flush:(fun label fold -> reports := finish label fold :: !reports)
  in
  List.rev !reports

let with_trace events f =
  let path = Filename.temp_file "runs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun channel ->
          Obs.Jsonl.write_events channel events);
      f path)

(* One contention profile per run of the trace at [path]. *)
let profiles ?on_error path =
  reports ?on_error path ~start:Obs.Profile.create ~push:Obs.Profile.handle
    ~finish:(fun label profile -> Obs.Profile.finish ~label profile)

let blames path =
  reports path ~start:Obs.Blame.create ~push:Obs.Blame.handle
    ~finish:(fun label blame -> Obs.Blame.finish ~label blame)

let certificates path =
  reports path
    ~start:(fun () -> Obs.Certify.create ())
    ~push:Obs.Certify.handle
    ~finish:(fun label certifier -> Obs.Certify.finish ~label certifier)

let profiles_of_events events = with_trace events profiles
