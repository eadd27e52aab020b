type meter = {
  mutable m_emitted : int;
  mutable m_bytes : int;
}

type t = {
  mutable clock : unit -> float;
  mutable handlers : (Event.t -> unit) list;
  meter : meter;
}

let default_clock () = 0.0

let create ?(clock = default_clock) handlers =
  { clock; handlers; meter = { m_emitted = 0; m_bytes = 0 } }

let attach sink handler = sink.handlers <- sink.handlers @ [ handler ]
let set_clock sink clock = sink.clock <- clock

let meter sink = sink.meter
let emit_count sink = sink.meter.m_emitted
let bytes_written sink = sink.meter.m_bytes

let emit_at sink ~time kind =
  match sink.handlers with
  | [] -> ()
  | handlers ->
    sink.meter.m_emitted <- sink.meter.m_emitted + 1;
    let event = { Event.time; kind } in
    List.iter (fun handler -> handler event) handlers

let emit sink kind =
  match sink.handlers with
  | [] -> ()
  | _ :: _ -> emit_at sink ~time:(sink.clock ()) kind

let filter keep handler event = if keep event then handler event

let not_sim_step event =
  match event.Event.kind with Event.Sim_step _ -> false | _ -> true

(* The capture is kept newest first and reversed on read, so a capture
   costs one cons per event whatever the run's length. *)
let memory ?clock ?keep () =
  let captured = ref [] in
  let capture event = captured := event :: !captured in
  let sink = create ?clock [] in
  attach sink
    (match keep with
     | None -> capture
     | Some keep -> filter keep capture);
  (sink, fun () -> List.rev !captured)
