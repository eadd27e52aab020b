(* Chrome trace_event exporter (the JSON format chrome://tracing and
   Perfetto load).  Each event group becomes one "process"; transactions map
   to threads, so lock-wait and transaction spans of concurrent transactions
   stack as parallel timelines.

   The spans are the [Spans] fold's, rendered as they close:
     wait span        "wait <resource>"   (cat "lock")
     lifecycle span   "T<n>"              (cat "txn")
   A wait that ended in anything but a grant (its waiter died, or it was
   still blocked when the capture ended) is marked unfinished, as is a
   transaction still running at the capture's last timestamp. *)

let default_ts_scale = 1000.0
(* Trace timestamps are microseconds.  Simulator ticks export as
   milliseconds (x1000) so a 100-tick access renders at a readable zoom. *)

let complete ~pid ~tid ~name ~cat ~ts ~dur args =
  Json.Obj
    [ ("name", Json.String name); ("cat", Json.String cat);
      ("ph", Json.String "X"); ("ts", Json.Float ts); ("dur", Json.Float dur);
      ("pid", Json.Int pid); ("tid", Json.Int tid); ("args", Json.Obj args) ]

let instant ~pid ~tid ~name ~cat ~ts args =
  Json.Obj
    [ ("name", Json.String name); ("cat", Json.String cat);
      ("ph", Json.String "i"); ("ts", Json.Float ts); ("s", Json.String "t");
      ("pid", Json.Int pid); ("tid", Json.Int tid); ("args", Json.Obj args) ]

let process_name ~pid name =
  Json.Obj
    [ ("name", Json.String "process_name"); ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String name) ]) ]

let ints items = Json.List (List.map (fun i -> Json.Int i) items)

(* [(tid, name, cat, args)] of the events that export as instants. *)
let instant_of = function
  | Event.Victim_aborted { txn; restarts } ->
    Some
      (txn, "victim aborted", "deadlock", [ ("restarts", Json.Int restarts) ])
  | Event.Timeout_abort { txn; resource; waited; _ } ->
    Some
      ( txn, "timeout abort", "deadlock",
        [ ("resource", Json.String resource); ("waited", Json.Int waited) ] )
  | Event.Deadlock_detected { cycle } ->
    let tid = match cycle with txn :: _ -> txn | [] -> 0 in
    Some (tid, "deadlock", "deadlock", [ ("cycle", ints cycle) ])
  | Event.Escalation { txn; node; mode; released_children } ->
    Some
      ( txn, "escalate " ^ node, "escalation",
        [ ("mode", Json.String mode);
          ("released_children", Json.Int released_children) ] )
  | Event.Deescalation { txn; node; mode } ->
    Some
      (txn, "de-escalate " ^ node, "escalation", [ ("mode", Json.String mode) ])
  | Event.Query_executed { txn; query; rows; locks_requested } ->
    Some
      ( txn, "query", "query",
        [ ("query", Json.String query); ("rows", Json.Int rows);
          ("locks_requested", Json.Int locks_requested) ] )
  | Event.Sim_step { txn; step } ->
    Some (txn, Printf.sprintf "step %d" step, "sim", [])
  | Event.Waits_for { edges } ->
    Some
      ( 0, "waits-for", "deadlock",
        [ ( "edges",
            Json.List
              (List.map
                 (fun (waiter, blocker) -> ints [ waiter; blocker ])
                 edges)
          ) ] )
  | Event.Slo_breach { rule; value; threshold } ->
    Some
      ( 0, "SLO breach", "slo",
        [ ("rule", Json.String rule); ("value", Json.Float value);
          ("threshold", Json.Float threshold) ] )
  | Event.Admission { txn; priority; decision } ->
    Some
      ( txn, "admission " ^ decision, "overload",
        [ ("priority", Json.String priority) ] )
  | Event.Admission_limit { limit; inflight; queued; shed } ->
    Some
      ( 0, "admission limit", "overload",
        [ ("limit", Json.Int limit); ("inflight", Json.Int inflight);
          ("queued", Json.Int queued); ("shed", Json.Int shed) ] )
  | Event.Breaker { from_state; to_state } ->
    Some
      (0, Printf.sprintf "breaker %s->%s" from_state to_state, "overload", [])
  | Event.Retry_denied { txn; restarts } ->
    Some (txn, "retry denied", "overload", [ ("restarts", Json.Int restarts) ])
  | Event.Contention_abort { txn; policy; depth } ->
    Some
      ( txn, "contention abort", "overload",
        [ ("policy", Json.String policy); ("depth", Json.Int depth) ] )
  | Event.Lock_requested _ | Event.Lock_released _ | Event.Conversion _
  | Event.Run_meta _ | Event.Lock_waited _ | Event.Lock_granted _
  | Event.Txn_begin _ | Event.Txn_commit _ | Event.Txn_abort _ ->
    None

let group_events ~pid ~scale events =
  let out = ref [] in
  let push json = out := json :: !out in
  let spans = Spans.create () in
  Spans.on_wait spans (fun wait ->
      push
        (complete ~pid ~tid:wait.Spans.s_txn
           ~name:("wait " ^ wait.Spans.s_resource)
           ~cat:"lock"
           ~ts:(wait.Spans.s_start *. scale)
           ~dur:((wait.Spans.s_finish -. wait.Spans.s_start) *. scale)
           ([ ("mode", Json.String wait.Spans.s_mode);
              ("blockers", ints wait.Spans.s_blockers) ]
            @
            match wait.Spans.s_outcome with
            | Spans.Granted -> []
            | Spans.Aborted _ | Spans.Unfinished ->
              [ ("unfinished", Json.Bool true) ])));
  Spans.on_life spans (fun { Spans.l_txn = txn; l_begin; l_end } ->
      match l_begin with
      | None -> ()
      | Some start ->
        let finish, outcome, finished =
          match l_end with
          | Some ("commit", time) -> (time, "committed", true)
          | Some (reason, time) -> (time, reason, true)
          | None -> (Spans.last_time spans, "running", false)
        in
        push
          (complete ~pid ~tid:txn ~name:(Printf.sprintf "T%d" txn) ~cat:"txn"
             ~ts:(start *. scale)
             ~dur:((finish -. start) *. scale)
             (("outcome", Json.String outcome)
              :: (if finished then [] else [ ("unfinished", Json.Bool true) ]))));
  List.iter
    (fun ({ Event.time; kind } as event) ->
      Spans.handle spans event;
      Option.iter
        (fun (tid, name, cat, args) ->
          push (instant ~pid ~tid ~name ~cat ~ts:(time *. scale) args))
        (instant_of kind))
    events;
  (* the capture ended with spans still open *)
  Spans.finish spans;
  List.rev !out

let ts_of = function
  | Json.Obj fields -> (
    match List.assoc_opt "ts" fields with Some (Json.Float ts) -> ts | _ -> -1.0)
  | _ -> -1.0

let to_json ?(ts_scale = default_ts_scale) groups =
  let trace_events =
    List.concat
      (List.mapi
         (fun index (name, events) ->
           let pid = index + 1 in
           process_name ~pid name :: group_events ~pid ~scale:ts_scale events)
         groups)
  in
  let sorted =
    List.stable_sort (fun a b -> Float.compare (ts_of a) (ts_of b)) trace_events
  in
  Json.Obj
    [ ("traceEvents", Json.List sorted);
      ("displayTimeUnit", Json.String "ms") ]

let write ?ts_scale channel groups =
  Json.output ~indent:1 channel (to_json ?ts_scale groups);
  output_char channel '\n'
