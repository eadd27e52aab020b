(* The span fold: every span decision of the trace layer, made once.

     Lock_waited(t0) ... Lock_granted(t1)                     -> Granted
     Lock_waited(t0) ... Victim/Timeout/Contention/Txn_abort  -> Aborted cause
     Lock_waited(t0) ... end of stream                        -> Unfinished

   A wait is cut into segments at the moments its blocker set changes (a
   blocker releases the resource, or a re-emitted [Lock_waited] reports a
   new granted group), so [Blame] can split each segment's length across
   the blockers live in it.  Waits are indexed by waiter and by resource,
   so an abort or a release touches only its own waits. *)

type outcome = Granted | Aborted of string | Unfinished

type agent = Txn of int | Queue

let agent_order = function Txn txn -> txn | Queue -> max_int

let compare_agent a b = Int.compare (agent_order a) (agent_order b)

type segment = {
  g_start : float;
  g_finish : float;
  g_live : (agent * string option) list;
}

type span = {
  s_txn : int;
  s_resource : string;
  s_mode : string;
  s_holder_modes : string list;
  s_lu : Event.lu option;
  s_blockers : int list;
  s_holders : Event.holder list;
  s_start : float;
  s_finish : float;
  s_outcome : outcome;
  s_segments : segment list;
}

let duration span = Float.max 0.0 (span.s_finish -. span.s_start)

type life = {
  l_txn : int;
  l_begin : float option;
  l_end : (string * float) option;
}

(* The events that kill a waiter: the waiter, the cause its waits close
   with, and whether the abort taxonomy counts it. *)
let death = function
  | Event.Victim_aborted { txn; _ } -> Some (txn, "deadlock", true)
  | Event.Timeout_abort { txn; _ } -> Some (txn, "timeout", true)
  | Event.Contention_abort { txn; _ } -> Some (txn, "contention", true)
  | Event.Txn_abort { txn; reason } ->
    Some
      ( txn,
        reason,
        reason <> "deadlock_victim" && reason <> "timeout_victim"
        && reason <> "contention_victim" )
  | Event.Lock_requested _ | Event.Lock_granted _ | Event.Lock_waited _
  | Event.Lock_released _ | Event.Conversion _ | Event.Escalation _
  | Event.Deescalation _ | Event.Deadlock_detected _ | Event.Txn_begin _
  | Event.Txn_commit _ | Event.Query_executed _ | Event.Sim_step _
  | Event.Waits_for _ | Event.Run_meta _ | Event.Slo_breach _
  | Event.Admission _ | Event.Admission_limit _ | Event.Breaker _
  | Event.Retry_denied _ ->
    None

let abort_cause kind =
  match death kind with Some (_, cause, true) -> Some cause | _ -> None

(* --------------------------------------------------------------- folding *)

type open_wait = {
  o_txn : int;
  o_resource : string;
  o_mode : string;
  o_lu : Event.lu option;
  o_blockers : int list;
  o_holders : Event.holder list;
  o_holder_modes : string list;
  o_start : float;
  mutable o_seg_start : float;
  mutable o_live : (agent * string option) list;
  mutable o_segments : segment list;  (* reversed *)
}

type t = {
  waits : (int * string, open_wait) Hashtbl.t;
  by_txn : (int, open_wait list) Hashtbl.t;  (* opening order *)
  by_resource : (string, open_wait list) Hashtbl.t;
  held : (int * string, string) Hashtbl.t;  (* current granted modes *)
  resource_lu : (string, Event.lu) Hashtbl.t;  (* last tag seen *)
  begins : (int, float) Hashtbl.t;  (* open lifecycles *)
  mutable wait_subscribers : (span -> unit) list;
  mutable life_subscribers : (life -> unit) list;
  mutable events : int;
  mutable first_time : float;
  mutable last_time : float;
}

let create () =
  { waits = Hashtbl.create 64; by_txn = Hashtbl.create 64;
    by_resource = Hashtbl.create 64; held = Hashtbl.create 256;
    resource_lu = Hashtbl.create 256; begins = Hashtbl.create 64;
    wait_subscribers = []; life_subscribers = []; events = 0;
    first_time = Float.infinity; last_time = Float.neg_infinity }

let on_wait spans f = spans.wait_subscribers <- spans.wait_subscribers @ [ f ]
let on_life spans f = spans.life_subscribers <- spans.life_subscribers @ [ f ]

let reset spans =
  Hashtbl.reset spans.waits;
  Hashtbl.reset spans.by_txn;
  Hashtbl.reset spans.by_resource;
  Hashtbl.reset spans.held;
  Hashtbl.reset spans.resource_lu;
  Hashtbl.reset spans.begins;
  spans.events <- 0;
  spans.first_time <- Float.infinity;
  spans.last_time <- Float.neg_infinity

let events spans = spans.events
let first_time spans = if spans.events = 0 then 0.0 else spans.first_time
let last_time spans = if spans.events = 0 then 0.0 else spans.last_time
let waiting spans = Hashtbl.length spans.waits
let held spans = Hashtbl.length spans.held
let active spans = Hashtbl.length spans.begins

let index table key wait =
  let known = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Hashtbl.replace table key (known @ [ wait ])

let unindex table key wait =
  match List.filter (( != ) wait) (Hashtbl.find table key) with
  | [] -> Hashtbl.remove table key
  | rest -> Hashtbl.replace table key rest

(* Close the running segment at [now]. *)
let flush_segment wait now =
  let now = Float.max wait.o_seg_start now in
  if now -. wait.o_seg_start > 0.0 then
    wait.o_segments <-
      { g_start = wait.o_seg_start; g_finish = now; g_live = wait.o_live }
      :: wait.o_segments;
  wait.o_seg_start <- now

let remove_blocker wait now agent =
  let others (live, _) = compare_agent live agent <> 0 in
  if not (List.for_all others wait.o_live) then begin
    flush_segment wait now;
    wait.o_live <-
      (match List.filter others wait.o_live with
       | [] -> [ (Queue, None) ]
       | remaining -> remaining)
  end

let open_wait spans ~txn ~resource ~mode ~blockers ~lu ~holders time =
  let live =
    match holders, blockers with
    | _ :: _, _ ->
      List.map
        (fun { Event.h_txn; h_mode; _ } -> (Txn h_txn, Some h_mode))
        holders
    | [], [] -> [ (Queue, None) ]
    | [], blockers ->
      List.map
        (fun blocker ->
          (Txn blocker, Hashtbl.find_opt spans.held (blocker, resource)))
        blockers
  in
  match Hashtbl.find_opt spans.waits (txn, resource) with
  | Some wait ->
    flush_segment wait time;
    wait.o_live <- live
  | None ->
    let wait =
      { o_txn = txn; o_resource = resource; o_mode = mode; o_lu = lu;
        o_blockers = blockers; o_holders = holders;
        o_holder_modes =
          List.sort_uniq String.compare (List.filter_map snd live);
        o_start = time; o_seg_start = time; o_live = live; o_segments = [] }
    in
    Hashtbl.replace spans.waits (txn, resource) wait;
    index spans.by_txn txn wait;
    index spans.by_resource resource wait

let close_wait spans wait finish s_outcome =
  Hashtbl.remove spans.waits (wait.o_txn, wait.o_resource);
  unindex spans.by_txn wait.o_txn wait;
  unindex spans.by_resource wait.o_resource wait;
  let finish = Float.max wait.o_start finish in
  flush_segment wait finish;
  let span =
    { s_txn = wait.o_txn; s_resource = wait.o_resource; s_mode = wait.o_mode;
      s_holder_modes = wait.o_holder_modes;
      s_lu =
        (match wait.o_lu with
         | Some _ -> wait.o_lu
         | None -> Hashtbl.find_opt spans.resource_lu wait.o_resource);
      s_blockers = wait.o_blockers; s_holders = wait.o_holders;
      s_start = wait.o_start; s_finish = finish; s_outcome;
      s_segments = List.rev wait.o_segments }
  in
  List.iter (fun f -> f span) spans.wait_subscribers

let close_life spans life = List.iter (fun f -> f life) spans.life_subscribers

let end_life spans txn cause time =
  let l_begin = Hashtbl.find_opt spans.begins txn in
  Hashtbl.remove spans.begins txn;
  close_life spans { l_txn = txn; l_begin; l_end = Some (cause, time) }

let handle spans { Event.time; kind } =
  spans.events <- spans.events + 1;
  if time < spans.first_time then spans.first_time <- time;
  if time > spans.last_time then spans.last_time <- time;
  (match Event.lu_of kind, Event.resource_of kind with
   | Some lu, Some resource -> Hashtbl.replace spans.resource_lu resource lu
   | _ -> ());
  (match death kind with
   | Some (txn, cause, _) ->
     List.iter
       (fun wait -> close_wait spans wait time (Aborted cause))
       (Option.value ~default:[] (Hashtbl.find_opt spans.by_txn txn))
   | None -> ());
  match kind with
  | Event.Lock_waited { txn; resource; mode; blockers; lu; holders } ->
    open_wait spans ~txn ~resource ~mode ~blockers ~lu ~holders time
  | Event.Lock_granted { txn; resource; mode; _ } ->
    (* most grants are immediate: skip the lookup while nobody waits *)
    if Hashtbl.length spans.waits > 0 then
      Option.iter
        (fun wait -> close_wait spans wait time Granted)
        (Hashtbl.find_opt spans.waits (txn, resource));
    Hashtbl.replace spans.held (txn, resource) mode
  | Event.Conversion { txn; resource; to_mode; _ } ->
    Hashtbl.replace spans.held (txn, resource) to_mode
  | Event.Lock_released { txn; resource; _ } ->
    Hashtbl.remove spans.held (txn, resource);
    if Hashtbl.length spans.waits > 0 then
      List.iter
        (fun wait -> remove_blocker wait time (Txn txn))
        (Option.value ~default:[] (Hashtbl.find_opt spans.by_resource resource))
  | Event.Txn_begin { txn } ->
    if not (Hashtbl.mem spans.begins txn) then
      Hashtbl.replace spans.begins txn time
  | Event.Txn_commit { txn } -> end_life spans txn "commit" time
  | Event.Txn_abort { txn; reason } -> end_life spans txn reason time
  | _ -> ()

let finish spans =
  let last = last_time spans in
  Hashtbl.fold (fun _key wait waits -> wait :: waits) spans.waits []
  |> List.iter (fun wait -> close_wait spans wait last Unfinished);
  Hashtbl.fold (fun txn start lives -> (txn, start) :: lives) spans.begins []
  |> List.iter (fun (txn, start) ->
         Hashtbl.remove spans.begins txn;
         close_life spans { l_txn = txn; l_begin = Some start; l_end = None })
