type meter = {
  mutable m_emitted : int;
  mutable m_dropped : int;
  mutable m_bytes : int;
}

type t = {
  mutable clock : unit -> float;
  mutable handlers : (Event.t -> unit) list;
  meter : meter;
}

let default_clock () = 0.0

let create ?(clock = default_clock) handlers =
  { clock; handlers; meter = { m_emitted = 0; m_dropped = 0; m_bytes = 0 } }

let attach sink handler = sink.handlers <- sink.handlers @ [ handler ]
let set_clock sink clock = sink.clock <- clock

let meter sink = sink.meter
let emit_count sink = sink.meter.m_emitted
let bytes_written sink = sink.meter.m_bytes
let drop_count sink = sink.meter.m_dropped

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

let drop meter =
  match meter with
  | None -> ()
  | Some meter -> meter.m_dropped <- meter.m_dropped + 1

let filter ?meter keep handler =
  fun event -> if keep event then handler event else drop meter

(* Stratified sampling driven by an explicit seeded PRNG (a 64-bit LCG, the
   MMIX constants): each consecutive stride of [every] events passes exactly
   one, at a stride-local offset drawn from the PRNG.  The same seed always
   selects the same events — runs stay reproducible — while the offsets
   move around so periodic event patterns cannot alias with the stride. *)
let sample ?meter ~seed ~every handler =
  if every <= 0 then invalid_arg "Sink.sample: every must be positive";
  let state = ref (Int64.of_int seed) in
  let next_offset () =
    state :=
      Int64.add
        (Int64.mul !state 6364136223846793005L)
        1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical !state 33) mod every
  in
  let position = ref 0 in
  let chosen = ref (next_offset ()) in
  fun event ->
    let passes = !position = !chosen in
    position := !position + 1;
    if !position >= every then begin
      position := 0;
      chosen := next_offset ()
    end;
    if passes then handler event else drop meter

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
     | Some keep -> filter ~meter:sink.meter keep capture);
  (sink, fun () -> List.rev !captured)
