(* Each line is encoded into a buffer and written with a single
   [Buffer.output_buffer] followed by a flush: a run killed mid-stream
   (fault plans abort anywhere) leaves a file of complete lines, never a
   torn one. *)

(* The handler reuses one buffer for every line; cleared, not reset, so it
   keeps the capacity of the longest line seen. *)
let handler ?meter channel =
  let buffer = Buffer.create 256 in
  fun event ->
    Buffer.clear buffer;
    Event.add_line buffer event;
    (match meter with
     | None -> ()
     | Some meter ->
       meter.Sink.m_bytes <- meter.Sink.m_bytes + Buffer.length buffer);
    Buffer.output_buffer channel buffer;
    flush channel

let write_events channel events =
  let buffer = Buffer.create 4096 in
  List.iter (Event.add_line buffer) events;
  Buffer.output_buffer channel buffer;
  flush channel

let iter ?(on_error = fun _ -> ()) in_channel f =
  let line_number = ref 0 in
  try
    while true do
      let start = pos_in in_channel in
      let line = input_line in_channel in
      incr line_number;
      (* [input_line] consumed a newline iff the position advanced past the
         line's own bytes; the final line of a crash-cut trace has none, so
         a decode failure there is diagnosed as truncation (with the byte
         offset to cut at) rather than as corruption *)
      let truncated = pos_in in_channel = start + String.length line in
      if String.trim line <> "" then begin
        let report message =
          if truncated then
            on_error
              (Printf.sprintf
                 "line %d: truncated final line at byte %d (crash-cut \
                  trace?): %s"
                 !line_number start message)
          else on_error (Printf.sprintf "line %d: %s" !line_number message)
        in
        match Json.of_string line with
        | Error message -> report message
        | Ok json -> (
          match Event.of_json json with
          | Ok event -> f event
          | Error message -> report message)
      end
    done
  with End_of_file -> ()

let with_file path f =
  let in_channel = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr in_channel)
    (fun () -> f in_channel)

let load path =
  let events = ref [] and errors = ref [] in
  with_file path (fun in_channel ->
      iter
        ~on_error:(fun message -> errors := message :: !errors)
        in_channel
        (fun event -> events := event :: !events));
  (List.rev !events, List.rev !errors)

type summary = { decoded : int; delimited : bool }

(* One file can hold several runs, each opened by a [Run_meta] line. The
   open run's accumulator is made by its first event, so a run costs
   nothing until it has one; a delimiter closes the run before it. *)
let read_runs ?(on_error = fun _ -> ()) path ~start ~push ~flush =
  let decoded = ref 0 and delimited = ref false and label = ref "run-0" in
  let current = ref None in
  let close () =
    match !current with
    | Some run ->
      current := None;
      flush !label run
    | None -> if !delimited then flush !label (start !label)
  in
  with_file path (fun in_channel ->
      iter ~on_error in_channel (fun event ->
          incr decoded;
          match event.Event.kind, !current with
          | Event.Run_meta { label = next }, _ ->
            close ();
            delimited := true;
            label := next
          | _, Some run -> push run event
          | _, None ->
            let run = start !label in
            current := Some run;
            push run event));
  (match !current with
   | Some _ when not !delimited ->
     on_error "no Run_meta delimiter; labelling the whole trace run-0"
   | Some _ | None -> ());
  close ();
  { decoded = !decoded; delimited = !delimited }
