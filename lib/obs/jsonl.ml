(* Each line is encoded into a buffer and written with a single
   [Buffer.output_buffer] followed by a flush: a run killed mid-stream
   (fault plans abort anywhere) leaves a file of complete lines, never a
   torn one. *)

let add_line buffer event =
  Json.add buffer (Event.to_json event);
  Buffer.add_char buffer '\n'

(* The handler reuses one buffer for every line; cleared, not reset, so it
   keeps the capacity of the longest line seen. *)
let handler ?meter channel =
  let buffer = Buffer.create 256 in
  fun event ->
    Buffer.clear buffer;
    add_line buffer event;
    (match meter with
     | None -> ()
     | Some meter ->
       meter.Sink.m_bytes <- meter.Sink.m_bytes + Buffer.length buffer);
    Buffer.output_buffer channel buffer;
    flush channel

let write channel event = handler channel event

let write_events channel events =
  let buffer = Buffer.create 4096 in
  List.iter (add_line buffer) events;
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

let read_events in_channel =
  let events = ref [] in
  let errors = ref [] in
  iter
    ~on_error:(fun message -> errors := message :: !errors)
    in_channel
    (fun event -> events := event :: !events);
  (List.rev !events, List.rev !errors)

let with_file path f =
  let in_channel = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr in_channel)
    (fun () -> f in_channel)

let load path = with_file path read_events
