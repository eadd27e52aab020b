module Table = Lockmgr.Lock_table
module Policy = Lockmgr.Policy
module Technique = Baselines.Technique
module Transaction = Txn.Transaction
module Txn_manager = Txn.Txn_manager

type step = {
  plan : Table.txn_id -> Technique.request list;
  access_cost : int;
}

type job = {
  arrival : int;
  priority : Robust.Admission.priority;
  steps : step list;
}

type overload = {
  admission : Robust.Admission.config option;
  controller : Robust.Controller.config;
  budget : Robust.Budget.config option;
  breaker : Robust.Breaker.config option;
}

let default_overload =
  { admission = Some Robust.Admission.default_config;
    controller = Robust.Controller.default_config; budget = None;
    breaker = None }

type config = {
  max_restarts : int;
  engine : Txn_manager.config;
  backoff : Policy.backoff;
  hog_hold : int;
  check_invariants : bool;
  snapshot_every : int option;
  overload : overload option;
}

let default_config =
  { max_restarts = 20; engine = Txn_manager.default_config;
    backoff = Policy.Fixed 50; hog_hold = 4000; check_invariants = false;
    snapshot_every = None; overload = None }

(* A job blocked in the lock table stays [Locking]: the wait itself is the
   engine's record on [txn]. *)
type status =
  | Idle
  | Locking
  | Accessing
  | Committed
  | Gave_up
  | Crashed
  | Shed

type job_state = {
  txn : Transaction.t;  (* birth = arrival; work = completed steps *)
  job : job;
  fate : Fault.fate;
  mutable pending : Technique.request list;
  mutable total_wait : int;
  mutable status : status;
  mutable commit_time : int;
}

type event =
  | Begin of job_state
  | Resume of job_state
  | Finish of job_state
  | Restart of job_state
  | Timeout_check of job_state * int  (* wait epoch the check was armed for *)
  | Hog_release of job_state
  | Snapshot  (* periodic wait-for-graph emission *)
  | Control  (* periodic AIMD admission-limit adjustment *)

(* What the controller senses, over the last [sensing_span] ticks: the
   length of every lock wait that ended (granted, or its waiter
   sacrificed), and every outcome, a commit as 0 and an abort as 1, so the
   mean is the abort rate. A victim counts 1 and a give-up one more, a
   crash or hog release 1; shed work counts nothing. *)
type senses = { waits : Obs.Window.t; outcomes : Obs.Window.t }

let sensing_span = 200.0

type sim = {
  table : Table.t;
  queue : event Event_queue.t;
  config : config;
  states : job_state array;
  obs : Obs.Sink.t option;
  mutable now : int;  (* virtual time of the event being handled *)
  (* overload-control actuators and senses (all absent when
     [config.overload] is); the admission gate is the engine's *)
  budget : Robust.Budget.t option;
  breaker : Robust.Breaker.t option;
  controller : (Robust.Controller.config * senses) option;
  mutable wdl_aborts : int;
}

let state_of sim (txn : Transaction.t) = sim.states.(txn.Transaction.id - 1)

let sense_wait sim waited =
  match sim.controller with
  | None -> ()
  | Some (_, senses) ->
    Obs.Window.observe senses.waits ~now:(float_of_int sim.now)
      (float_of_int waited)

let sense_outcome sim ~aborted =
  match sim.controller with
  | None -> ()
  | Some (_, senses) ->
    Obs.Window.observe senses.outcomes ~now:(float_of_int sim.now)
      (if aborted then 1.0 else 0.0)

(* Every emitting site tests [traced] first, so an untraced run builds no
   event payload. *)
let traced sim = Option.is_some sim.obs

let emit sim kind =
  match sim.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

(* Run an operation against the breaker (when one is configured) and emit a
   [Breaker] event whenever it changed state. *)
let with_breaker sim ~default f =
  match sim.breaker with
  | None -> default
  | Some breaker ->
    let before = Robust.Breaker.state breaker in
    let result = f breaker in
    let after = Robust.Breaker.state breaker in
    if before <> after then
      if traced sim then emit sim
        (Obs.Event.Breaker
           { from_state = Robust.Breaker.state_to_string before;
             to_state = Robust.Breaker.state_to_string after });
    result

(* The restart verdict on an engine victim, whose locks are already gone:
   give up, or restart the job under its own id after a backoff. *)
let restart_or_give_up sim engine (txn : Transaction.t) reason ~waited =
  let state = state_of sim txn in
  let time = sim.now in
  (* a job victimized while blocked keeps the time it already waited: that
     is real delay (the restart resets everything else) *)
  Option.iter
    (fun waited ->
      state.total_wait <- state.total_wait + waited;
      sense_wait sim waited)
    waited;
  sense_outcome sim ~aborted:true;
  state.pending <- [];
  txn.Transaction.work <- 0;
  (* deadlock and timeout victims are counted by the engine *)
  if reason = Transaction.Contention_victim then
    sim.wdl_aborts <- sim.wdl_aborts + 1;
  with_breaker sim ~default:() (fun breaker ->
      Robust.Breaker.record_abort breaker ~now:time);
  let give_up reason =
    sense_outcome sim ~aborted:true;
    state.status <- Gave_up;
    (* record when the job abandoned, so response time accounts for it *)
    state.commit_time <- time;
    if traced sim then
      emit sim (Obs.Event.Txn_abort { txn = txn.Transaction.id; reason });
    Txn_manager.leave engine txn
  in
  if txn.Transaction.restarts > sim.config.max_restarts then give_up "gave_up"
  else begin
    let denied =
      match sim.budget with
      | Some budget when not (Robust.Budget.try_retry budget) ->
        if traced sim then emit sim
          (Obs.Event.Retry_denied
             { txn = txn.Transaction.id; restarts = txn.Transaction.restarts });
        true
      | Some _ | None -> false
    in
    if denied then give_up "retry_budget"
    else begin
      state.status <- Idle;
      let delay =
        Policy.delay sim.config.backoff ~restarts:txn.Transaction.restarts
          ~txn:txn.Transaction.id
      in
      (* while the breaker is open, park the restart until it will probe *)
      let restart_time =
        match sim.breaker with
        | Some breaker -> (
          match Robust.Breaker.reopen_at breaker with
          | Some at -> max (time + delay) at
          | None -> time + delay)
        | None -> time + delay
      in
      Event_queue.schedule sim.queue ~time:restart_time (Restart state)
    end
  end

(* The engine calls back where the simulator schedules: timeout checks
   when a wait begins, restarts before wake-ups, begins of admitted work. *)
let client sim =
  { Txn_manager.arm =
      (fun _engine txn ~epoch ~deadline ->
        Event_queue.schedule sim.queue ~time:deadline
          (Timeout_check (state_of sim txn, epoch)));
    undo = (fun _engine _txn -> ());
    victim = restart_or_give_up sim;
    woken =
      (fun _engine txn ~waited ->
        let state = state_of sim txn in
        state.total_wait <- state.total_wait + waited;
        sense_wait sim waited;
        Event_queue.schedule sim.queue ~time:sim.now (Resume state));
    admitted =
      (fun _engine txn ->
        Event_queue.schedule sim.queue ~time:sim.now (Begin (state_of sim txn)));
    shed =
      (fun _engine txn ->
        let state = state_of sim txn in
        state.status <- Shed;
        state.commit_time <- sim.now) }

(* A faulted job dies for good: everything is released, nothing restarts.
   It never dies waiting: crashes strike while locking or accessing. *)
let crash sim engine time ~reason state =
  let grants = Txn_manager.release engine state.txn in
  sense_outcome sim ~aborted:true;
  state.pending <- [];
  state.status <- Crashed;
  state.commit_time <- time;
  if traced sim then
    emit sim (Obs.Event.Txn_abort { txn = state.txn.Transaction.id; reason });
  Txn_manager.leave engine state.txn;
  Txn_manager.wake engine grants

let rec continue_locking sim engine time state =
  let txn = state.txn in
  match state.pending with
  | [] -> begin
    match List.nth_opt state.job.steps txn.Transaction.work with
    | None ->
      (* all steps done: commit *)
      state.status <- Committed;
      state.commit_time <- time;
      sense_outcome sim ~aborted:false;
      if traced sim then
        emit sim (Obs.Event.Txn_commit { txn = txn.Transaction.id });
      (match sim.budget with
       | Some budget -> Robust.Budget.on_commit budget
       | None -> ());
      with_breaker sim ~default:() (fun breaker ->
          Robust.Breaker.record_commit breaker ~now:time);
      Txn_manager.wake engine (Txn_manager.release engine txn);
      Txn_manager.leave engine txn
    | Some step -> (
      match state.fate with
      | Fault.Crash_at crash_step when crash_step = txn.Transaction.work ->
        (* dies with this step's locks held — the worst moment *)
        crash sim engine time ~reason:"crash" state
      | Fault.Hog when txn.Transaction.work = 0 ->
        (* sits on its first step's locks without committing until the
           runner's hold limit forces a crash-release *)
        state.status <- Accessing;
        Event_queue.schedule sim.queue ~time:(time + sim.config.hog_hold)
          (Hog_release state)
      | Fault.Stall factor ->
        state.status <- Accessing;
        Event_queue.schedule sim.queue
          ~time:(time + (step.access_cost * factor))
          (Finish state)
      | Fault.Normal | Fault.Crash_at _ | Fault.Hog ->
        state.status <- Accessing;
        Event_queue.schedule sim.queue ~time:(time + step.access_cost)
          (Finish state))
  end
  | request :: rest -> (
    let resource = request.Technique.resource in
    match
      Table.request sim.table ~txn:txn.Transaction.id ~resource
        request.Technique.mode
    with
    | Table.Granted ->
      state.pending <- rest;
      continue_locking sim engine time state
    | Table.Waiting blockers ->
      state.pending <- rest;
      (* unless sacrificed, it stays queued; a grant will resume it *)
      ignore (Txn_manager.wait engine txn ~resource ~blockers : bool))

let start_step sim engine time state =
  match List.nth_opt state.job.steps state.txn.Transaction.work with
  | None -> continue_locking sim engine time state  (* zero-step job commits *)
  | Some step ->
    state.status <- Locking;
    state.pending <- step.plan state.txn.Transaction.id;
    if traced sim then
      emit sim
        (Obs.Event.Sim_step
           { txn = state.txn.Transaction.id; step = state.txn.Transaction.work });
    continue_locking sim engine time state

let handle sim engine time = function
  | Begin state -> (
    match state.status with
    | Idle -> (
      match Txn_manager.enter ~priority:state.job.priority engine state.txn with
      | Txn_manager.Started _ -> start_step sim engine time state
      | Txn_manager.Queued _ | Txn_manager.Shed -> ())
    | Locking | Accessing | Committed | Gave_up | Crashed | Shed -> ())
  | Restart state -> (
    match state.status with
    | Idle ->
      (* restarts keep their admission slot but must get past an open
         circuit breaker *)
      let allowed =
        with_breaker sim ~default:true (fun breaker ->
            Robust.Breaker.allow breaker ~now:time)
      in
      if allowed then start_step sim engine time state
      else begin
        let retry_at =
          match sim.breaker with
          | Some breaker -> (
            match Robust.Breaker.reopen_at breaker with
            | Some at -> max (time + 1) at
            | None ->
              (* half-open with its probes taken: look again after one
                 open period *)
              time + (Robust.Breaker.config breaker).Robust.Breaker.open_for)
          | None -> time + 1
        in
        Event_queue.schedule sim.queue ~time:retry_at (Restart state)
      end
    | Locking | Accessing | Committed | Gave_up | Crashed | Shed -> ())
  | Resume state -> (
    match state.status with
    | Locking when not (Transaction.is_waiting state.txn) ->
      continue_locking sim engine time state
    | Idle | Locking | Accessing | Committed | Gave_up | Crashed | Shed -> ())
  | Finish state -> (
    match state.status with
    | Accessing ->
      state.txn.Transaction.work <- state.txn.Transaction.work + 1;
      state.pending <- [];
      start_step sim engine time state
    | Idle | Locking | Committed | Gave_up | Crashed | Shed -> ())
  | Timeout_check (state, epoch) ->
    (* live only while the job is still in the very wait it was armed for *)
    Txn_manager.expire engine state.txn ~epoch
  | Hog_release state -> (
    match state.status with
    | Accessing -> crash sim engine time ~reason:"hog" state
    | Idle | Locking | Committed | Gave_up | Crashed | Shed -> ())
  | Snapshot -> (
    if traced sim then
      emit sim
        (Obs.Event.Waits_for { edges = Table.waits_for_edges sim.table });
    (* only reschedule while real work remains queued, or the drain loop
       would follow snapshots forever *)
    match sim.config.snapshot_every with
    | Some period when not (Event_queue.is_empty sim.queue) ->
      Event_queue.schedule sim.queue ~time:(time + period) Snapshot
    | Some _ | None -> ())
  | Control -> (
    (* the closed loop: read the run's own senses, move the AIMD limit,
       surface the change as an event, and admit freed-up queued work *)
    (match Txn_manager.admission engine, sim.controller with
     | Some admission, Some (controller, { waits; outcomes }) ->
       let now = float_of_int time in
       Obs.Window.advance waits ~now;
       Obs.Window.advance outcomes ~now;
       let p95_wait = Obs.Window.quantile waits 0.95 in
       let abort_rate = Obs.Window.mean outcomes in
       let queue_depth = Table.waiter_count sim.table in
       (match
          Robust.Controller.step controller admission ~p95_wait ~abort_rate
            ~queue_depth
        with
       | Robust.Controller.Unchanged -> ()
       | Robust.Controller.Raised limit | Robust.Controller.Lowered limit ->
         if traced sim then emit sim
           (Obs.Event.Admission_limit
              { limit;
                inflight = Robust.Admission.inflight admission;
                queued = Robust.Admission.queued admission;
                shed = Robust.Admission.shed_count admission }));
       Txn_manager.admit_queued engine
     | _, _ -> ());
    match sim.controller with
    | Some (controller, _) when not (Event_queue.is_empty sim.queue) ->
      Event_queue.schedule sim.queue
        ~time:(time + controller.Robust.Controller.every)
        Control
    | Some _ | None -> ())

(* Chaos-run oracle: after every event the table must be structurally sound,
   every blocked job must really be queued, and — when detection runs — the
   waits-for graph must be acyclic (cycles legitimately persist until their
   deadline under pure timeouts). *)
let audit sim time =
  (match Table.check_invariants sim.table with
   | [] -> ()
   | violations ->
     failwith
       (Printf.sprintf "lock table invariants violated at t=%d: %s" time
          (String.concat "; " violations)));
  if Policy.detects sim.config.engine.Txn_manager.resolution then begin
    match
      Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges sim.table)
    with
    | None -> ()
    | Some cycle ->
      failwith
        (Printf.sprintf "unresolved deadlock at t=%d: [%s]" time
           (String.concat " " (List.map string_of_int cycle)))
  end;
  Array.iter
    (fun state ->
      let txn = state.txn.Transaction.id in
      if
        Transaction.is_waiting state.txn
        && Table.waiting_of sim.table ~txn = []
      then
        failwith
          (Printf.sprintf "T%d marked waiting but queued nowhere at t=%d" txn
             time);
      if state.status = Shed && Table.locks_of sim.table ~txn <> [] then
        failwith
          (Printf.sprintf "shed T%d still holds locks at t=%d" txn time))
    sim.states

let run ?(config = default_config) ?(faults = Fault.none)
    ?(on_begin = fun _txn -> ()) ?obs ~table jobs =
  let obs = match obs with Some _ -> obs | None -> Table.obs table in
  let states =
    Array.of_list
      (List.mapi
         (fun index job ->
           let txn = index + 1 in
           { txn = Transaction.make ~id:txn ~birth:job.arrival (); job;
             fate = Fault.fate faults ~txn ~steps:(List.length job.steps);
             pending = []; total_wait = 0; status = Idle; commit_time = 0 })
         jobs)
  in
  let overload_part field =
    Option.bind config.overload (fun (overload : overload) -> field overload)
  in
  let sim =
    { table; queue = Event_queue.create (); config; states; obs; now = 0;
      budget =
        overload_part (fun overload ->
            Option.map Robust.Budget.create overload.budget);
      breaker =
        overload_part (fun overload ->
            Option.map Robust.Breaker.create overload.breaker);
      controller =
        Option.map
          (fun (overload : overload) ->
            ( overload.controller,
              { waits = Obs.Window.create ~span:sensing_span ();
                outcomes = Obs.Window.create ~span:sensing_span () } ))
          config.overload;
      wdl_aborts = 0 }
  in
  let stats = Table.stats table in
  let victims = stats.Lockmgr.Lock_stats.victim_aborts in
  let timeouts = stats.Lockmgr.Lock_stats.timeout_aborts in
  let engine =
    Txn_manager.make (client sim)
      ~clock:(fun () -> sim.now)
      ?obs
      ?admission:(overload_part (fun overload -> overload.admission))
      ~config:config.engine (`Table table)
  in
  (* Events emitted during a run — including the lock table's own — carry
     virtual simulation time, not the sink's wall-clock default. *)
  (match obs with
   | Some sink -> Obs.Sink.set_clock sink (fun () -> float_of_int sim.now)
   | None -> ());
  Array.iter
    (fun state ->
      on_begin state.txn.Transaction.id;
      Event_queue.schedule sim.queue ~time:state.job.arrival (Begin state))
    states;
  (match config.snapshot_every with
   | Some period when period > 0 && Array.length states > 0 ->
     Event_queue.schedule sim.queue ~time:period Snapshot
   | Some _ | None -> ());
  (match sim.controller, Txn_manager.admission engine with
   | Some (controller, _), Some _ when Array.length states > 0 ->
     Event_queue.schedule sim.queue ~time:controller.Robust.Controller.every
       Control
   | _, _ -> ());
  let rec drain () =
    match Event_queue.pop sim.queue with
    | None -> ()
    | Some (time, event) ->
      sim.now <- time;
      handle sim engine time event;
      if config.check_invariants then audit sim time;
      drain ()
  in
  drain ();
  let count status =
    Array.fold_left
      (fun count state -> if state.status = status then count + 1 else count)
      0 states
  in
  let sum field = Array.fold_left (fun total state -> total + field state) 0 states in
  (* a give-up, crash or shed records its moment in [commit_time] too, so
     abandoned and refused jobs count toward response time instead of
     skewing the mean *)
  let response state =
    match state.status with
    | Committed | Gave_up | Crashed | Shed -> state.commit_time - state.job.arrival
    | Idle | Locking | Accessing -> 0
  in
  let makespan =
    Array.fold_left
      (fun makespan state ->
        if state.status = Committed then max makespan state.commit_time
        else makespan)
      0 states
  in
  { Metrics.committed = count Committed;
    deadlock_aborts = stats.Lockmgr.Lock_stats.victim_aborts - victims;
    timeout_aborts = stats.Lockmgr.Lock_stats.timeout_aborts - timeouts;
    wdl_aborts = sim.wdl_aborts;
    gave_up = count Gave_up;
    crashed = count Crashed;
    shed = count Shed;
    retry_denied = Option.fold ~none:0 ~some:Robust.Budget.denied_count sim.budget;
    makespan;
    total_response = sum response;
    total_wait = sum (fun state -> state.total_wait);
    lock_requests = stats.Lockmgr.Lock_stats.requests;
    conflict_tests = stats.Lockmgr.Lock_stats.conflict_tests;
    peak_lock_entries = Table.peak_entry_count table;
    escalations = stats.Lockmgr.Lock_stats.escalations }
