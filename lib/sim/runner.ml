module Table = Lockmgr.Lock_table
module Policy = Lockmgr.Policy
module Technique = Baselines.Technique

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
  resolution : Policy.resolution;
  victim : Policy.victim;
  backoff : Policy.backoff;
  restart : Policy.restart;
  hog_hold : int;
  check_invariants : bool;
  snapshot_every : int option;
  on_advance : (int -> unit) option;
  overload : overload option;
}

let default_config =
  { max_restarts = 20; resolution = Policy.Detection;
    victim = Policy.Youngest; backoff = Policy.Fixed 50;
    restart = Policy.No_restart; hog_hold = 4000; check_invariants = false;
    snapshot_every = None; on_advance = None; overload = None }

type status =
  | Idle
  | Locking
  | Waiting
  | Accessing
  | Committed
  | Gave_up
  | Crashed
  | Shed

type job_state = {
  txn : Table.txn_id;
  job : job;
  fate : Fault.fate;
  mutable step_index : int;
  mutable pending : Technique.request list;
  mutable waiting_on : string option;
  mutable blocked_since : int;
  mutable wait_epoch : int;  (* distinguishes successive waits of one txn *)
  mutable total_wait : int;
  mutable restarts : int;
  mutable status : status;
  mutable commit_time : int;
  mutable admitted : bool;  (* holds an admission slot (when gating is on) *)
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

type abort_reason = Deadlock | Timeout | Contention

type sim = {
  table : Table.t;
  queue : event Event_queue.t;
  config : config;
  states : job_state array;
  mutable deadlock_aborts : int;
  mutable timeout_aborts : int;
  mutable crashed : int;
  obs : Obs.Sink.t option;
  mutable now : int;  (* virtual time of the event being handled *)
  (* overload-control actuators (all absent when [config.overload] is) *)
  admission : Robust.Admission.t option;
  budget : Robust.Budget.t option;
  breaker : Robust.Breaker.t option;
  controller : Robust.Controller.config option;
  ctl_monitor : Obs.Monitor.t option;
      (* private monitor the controller samples; attached to [obs] *)
  mutable shed : int;
  mutable wdl_aborts : int;
  mutable retry_denied : int;
}

let state_of sim txn = sim.states.(txn - 1)

(* Every emitting site tests [traced] first, so an untraced run builds no
   event payload. *)
let traced sim = Option.is_some sim.obs

let emit sim kind =
  match sim.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

let priority_label state =
  Robust.Admission.priority_to_string state.job.priority

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

(* Wake every job whose queued request was just granted. *)
let rec process_grants sim time grants =
  List.iter
    (fun grant ->
      let state = state_of sim grant.Table.g_txn in
      match state.status, state.waiting_on with
      | Waiting, Some resource when String.equal resource grant.Table.g_resource ->
        state.status <- Locking;
        state.waiting_on <- None;
        state.total_wait <- state.total_wait + (time - state.blocked_since);
        Event_queue.schedule sim.queue ~time (Resume state)
      | ( ( Idle | Locking | Waiting | Accessing | Committed | Gave_up
          | Crashed | Shed ),
          _ ) ->
        ())
    grants

(* An admitted job left the system: free its slot, then promote as much
   queued work as the limit now allows. *)
and admission_exit sim time state =
  match sim.admission with
  | None -> ()
  | Some admission ->
    if state.admitted then begin
      state.admitted <- false;
      Robust.Admission.release admission;
      admission_drain sim time
    end

and admission_drain sim time =
  match sim.admission with
  | None -> ()
  | Some admission -> (
    match Robust.Admission.pop admission with
    | None -> ()
    | Some txn ->
      let state = state_of sim txn in
      (* [pop] already took the slot for it *)
      state.admitted <- true;
      Event_queue.schedule sim.queue ~time (Begin state);
      admission_drain sim time)

and abort_and_restart sim time ~reason state =
  (* A job victimized while blocked has been waiting since [blocked_since];
     that time is real delay and must survive the abort (the restart resets
     everything else). *)
  let blocked_wait =
    match state.status, state.waiting_on with
    | Waiting, Some _ -> time - state.blocked_since
    | _, _ -> 0
  in
  let waited_on =
    match state.waiting_on with Some resource -> resource | None -> ""
  in
  let cancel_grants = Table.cancel_wait sim.table ~txn:state.txn in
  let release_grants = Table.release_all sim.table ~txn:state.txn in
  state.total_wait <- state.total_wait + blocked_wait;
  state.waiting_on <- None;
  state.pending <- [];
  state.step_index <- 0;
  state.restarts <- state.restarts + 1;
  let stats = Table.stats sim.table in
  (match reason with
   | Deadlock ->
     sim.deadlock_aborts <- sim.deadlock_aborts + 1;
     stats.Lockmgr.Lock_stats.victim_aborts <-
       stats.Lockmgr.Lock_stats.victim_aborts + 1;
     if traced sim then emit sim
       (Obs.Event.Victim_aborted { txn = state.txn; restarts = state.restarts })
   | Timeout ->
     sim.timeout_aborts <- sim.timeout_aborts + 1;
     stats.Lockmgr.Lock_stats.timeout_aborts <-
       stats.Lockmgr.Lock_stats.timeout_aborts + 1;
     if traced sim then emit sim
       (Obs.Event.Timeout_abort
          { txn = state.txn; resource = waited_on; waited = blocked_wait;
            lu = Table.resource_lu sim.table waited_on })
   | Contention ->
     (* the Contention_abort event was emitted by the restart policy *)
     sim.wdl_aborts <- sim.wdl_aborts + 1);
  with_breaker sim ~default:() (fun breaker ->
      Robust.Breaker.record_abort breaker ~now:time);
  let give_up reason =
    state.status <- Gave_up;
    (* record when the job abandoned, so response time accounts for it *)
    state.commit_time <- time;
    if traced sim then
      emit sim (Obs.Event.Txn_abort { txn = state.txn; reason });
    admission_exit sim time state
  in
  if state.restarts > sim.config.max_restarts then give_up "gave_up"
  else begin
    let denied =
      match sim.budget with
      | Some budget when not (Robust.Budget.try_retry budget) ->
        sim.retry_denied <- sim.retry_denied + 1;
        if traced sim then emit sim
          (Obs.Event.Retry_denied
             { txn = state.txn; restarts = state.restarts });
        true
      | Some _ | None -> false
    in
    if denied then give_up "retry_budget"
    else begin
      state.status <- Idle;
      let delay =
        Policy.delay sim.config.backoff ~restarts:state.restarts ~txn:state.txn
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
  end;
  process_grants sim time (cancel_grants @ release_grants)

(* A faulted job dies for good: everything is released, nothing restarts. *)
and crash sim time ~reason state =
  let blocked_wait =
    match state.status, state.waiting_on with
    | Waiting, Some _ -> time - state.blocked_since
    | _, _ -> 0
  in
  let cancel_grants = Table.cancel_wait sim.table ~txn:state.txn in
  let release_grants = Table.release_all sim.table ~txn:state.txn in
  state.total_wait <- state.total_wait + blocked_wait;
  state.waiting_on <- None;
  state.pending <- [];
  state.status <- Crashed;
  state.commit_time <- time;
  sim.crashed <- sim.crashed + 1;
  if traced sim then emit sim (Obs.Event.Txn_abort { txn = state.txn; reason });
  admission_exit sim time state;
  process_grants sim time (cancel_grants @ release_grants)

(* Returns [true] when [requester] itself was sacrificed. *)
and resolve_deadlocks sim time requester =
  Lockmgr.Deadlock.resolve sim.table ~obs:sim.obs ~victim:sim.config.victim
    ~candidate:(fun txn ->
      let state = state_of sim txn in
      { Policy.txn; birth = state.job.arrival;
        locks_held = List.length (Table.locks_of sim.table ~txn);
        work_done = state.step_index })
    ~abort:(fun txn ->
      abort_and_restart sim time ~reason:Deadlock (state_of sim txn))
    ~requester

and contention_abort sim time ~policy ~depth victim =
  if traced sim then
    emit sim (Obs.Event.Contention_abort { txn = victim.txn; policy; depth });
  abort_and_restart sim time ~reason:Contention victim

(* Thomasian-style restart policies, applied the moment a request starts
   waiting. Returns [true] when the requester itself was sacrificed. *)
and apply_restart_policy sim time state blockers =
  match sim.config.restart with
  | Policy.No_restart -> false
  | Policy.Wait_depth limit ->
    let depth = Table.wait_depth sim.table ~txn:state.txn in
    if depth <= limit then false
    else begin
      (* victim: the requester or one of its waiting blockers — least work
         lost dies, ties toward the larger transaction id *)
      let waiting_blockers =
        List.filter (fun txn -> (state_of sim txn).status = Waiting) blockers
      in
      let score txn =
        let s = state_of sim txn in
        (s.step_index, -txn)
      in
      let victim_txn =
        List.fold_left
          (fun best txn -> if score txn < score best then txn else best)
          state.txn waiting_blockers
      in
      let policy = Policy.restart_to_string (Policy.Wait_depth limit) in
      contention_abort sim time ~policy ~depth (state_of sim victim_txn);
      victim_txn = state.txn
    end
  | Policy.Running_priority ->
    (* a running requester never queues behind waiters: every blocker that
       is itself waiting is restarted *)
    List.iter
      (fun txn ->
        let blocker = state_of sim txn in
        if blocker.status = Waiting then
          contention_abort sim time ~policy:"running-priority"
            ~depth:(Table.wait_depth sim.table ~txn)
            blocker)
      blockers;
    false

let begin_wait sim time state resource =
  state.status <- Waiting;
  state.waiting_on <- Some resource;
  state.blocked_since <- time;
  state.wait_epoch <- state.wait_epoch + 1;
  match Policy.timeout_of sim.config.resolution with
  | None -> ()
  | Some timeout ->
    Event_queue.schedule sim.queue ~time:(time + timeout)
      (Timeout_check (state, state.wait_epoch))

let rec continue_locking sim time state =
  match state.pending with
  | [] -> begin
    match List.nth_opt state.job.steps state.step_index with
    | None ->
      (* all steps done: commit *)
      state.status <- Committed;
      state.commit_time <- time;
      if traced sim then emit sim (Obs.Event.Txn_commit { txn = state.txn });
      (match sim.budget with
       | Some budget -> Robust.Budget.on_commit budget
       | None -> ());
      with_breaker sim ~default:() (fun breaker ->
          Robust.Breaker.record_commit breaker ~now:time);
      process_grants sim time (Table.release_all sim.table ~txn:state.txn);
      admission_exit sim time state
    | Some step -> (
      match state.fate with
      | Fault.Crash_at crash_step when crash_step = state.step_index ->
        (* dies with this step's locks held — the worst moment *)
        crash sim time ~reason:"crash" state
      | Fault.Hog when state.step_index = 0 ->
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
    let deadline =
      match Policy.timeout_of sim.config.resolution with
      | None -> None
      | Some timeout -> Some (time + timeout)
    in
    match
      Table.request sim.table ~txn:state.txn ?deadline ~resource
        request.Technique.mode
    with
    | Table.Granted ->
      state.pending <- rest;
      continue_locking sim time state
    | Table.Waiting blockers ->
      begin_wait sim time state resource;
      state.pending <- rest;
      let self_aborted = apply_restart_policy sim time state blockers in
      (* unless sacrificed, it stays queued; a grant will resume it *)
      if (not self_aborted) && Policy.detects sim.config.resolution then
        ignore (resolve_deadlocks sim time state.txn : bool))

let start_step sim time state =
  match List.nth_opt state.job.steps state.step_index with
  | None -> continue_locking sim time state  (* zero-step job commits *)
  | Some step ->
    state.status <- Locking;
    state.pending <- step.plan state.txn;
    if traced sim then
      emit sim
        (Obs.Event.Sim_step { txn = state.txn; step = state.step_index });
    continue_locking sim time state

(* The entry gate. [true] means the job may begin now; [false] means it was
   queued (a later [pop] re-schedules its Begin) or shed for good. *)
let admission_gate sim time state =
  match sim.admission with
  | None -> true
  | Some admission ->
    if state.admitted then true
    else begin
      let shed victim =
        victim.status <- Shed;
        victim.commit_time <- time;
        victim.admitted <- false;
        sim.shed <- sim.shed + 1;
        if traced sim then emit sim
          (Obs.Event.Admission
             { txn = victim.txn; priority = priority_label victim;
               decision = "shed" })
      in
      match
        Robust.Admission.request admission ~priority:state.job.priority
          ~txn:state.txn
      with
      | Robust.Admission.Admitted ->
        state.admitted <- true;
        true
      | Robust.Admission.Enqueued { evicted } ->
        if traced sim then emit sim
          (Obs.Event.Admission
             { txn = state.txn; priority = priority_label state;
               decision = "queued" });
        (match evicted with
         | Some txn -> shed (state_of sim txn)
         | None -> ());
        false
      | Robust.Admission.Rejected ->
        shed state;
        false
    end

let handle sim time = function
  | Begin state -> (
    match state.status with
    | Idle ->
      if admission_gate sim time state then begin
        if traced sim then emit sim (Obs.Event.Txn_begin { txn = state.txn });
        start_step sim time state
      end
    | Locking | Waiting | Accessing | Committed | Gave_up | Crashed | Shed ->
      ())
  | Restart state -> (
    match state.status with
    | Idle ->
      (* restarts keep their admission slot but must get past an open
         circuit breaker *)
      let allowed =
        with_breaker sim ~default:true (fun breaker ->
            Robust.Breaker.allow breaker ~now:time)
      in
      if allowed then start_step sim time state
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
    | Locking | Waiting | Accessing | Committed | Gave_up | Crashed | Shed ->
      ())
  | Resume state -> (
    match state.status with
    | Locking -> continue_locking sim time state
    | Idle | Waiting | Accessing | Committed | Gave_up | Crashed | Shed -> ())
  | Finish state -> (
    match state.status with
    | Accessing ->
      state.step_index <- state.step_index + 1;
      state.pending <- [];
      start_step sim time state
    | Idle | Locking | Waiting | Committed | Gave_up | Crashed | Shed -> ())
  | Timeout_check (state, epoch) -> (
    (* the check is only live if the job is still in the very wait it was
       armed for — a grant, abort or restart bumps the epoch or status *)
    match state.status with
    | Waiting when state.wait_epoch = epoch ->
      abort_and_restart sim time ~reason:Timeout state
    | Idle | Locking | Waiting | Accessing | Committed | Gave_up | Crashed
    | Shed ->
      ())
  | Hog_release state -> (
    match state.status with
    | Accessing -> crash sim time ~reason:"hog" state
    | Idle | Locking | Waiting | Committed | Gave_up | Crashed | Shed -> ())
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
    (* the closed loop: sample the private monitor, move the AIMD limit,
       surface the change as an event, and admit freed-up queued work *)
    (match sim.admission, sim.controller, sim.ctl_monitor with
     | Some admission, Some controller, Some monitor ->
       let p95_wait =
         Obs.Slo.measure monitor (Obs.Slo.Wait_quantile { q = 0.95; lu = None })
       in
       let abort_rate = Obs.Slo.measure monitor Obs.Slo.Abort_rate in
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
       admission_drain sim time
     | _, _, _ -> ());
    match sim.controller with
    | Some controller when not (Event_queue.is_empty sim.queue) ->
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
  if Policy.detects sim.config.resolution then begin
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
      match state.status with
      | Waiting ->
        if Table.waiting_of sim.table ~txn:state.txn = [] then
          failwith
            (Printf.sprintf "T%d marked waiting but queued nowhere at t=%d"
               state.txn time)
      | Shed ->
        if Table.locks_of sim.table ~txn:state.txn <> [] then
          failwith
            (Printf.sprintf "shed T%d still holds locks at t=%d" state.txn
               time)
      | Idle | Locking | Accessing | Committed | Gave_up | Crashed -> ())
    sim.states

let run ?(config = default_config) ?(faults = Fault.none)
    ?(on_begin = fun _txn -> ()) ?obs ~table jobs =
  let obs = match obs with Some _ -> obs | None -> Table.obs table in
  (* The controller needs live contention signals: give the run a private
     monitor attached to the sink (creating a sink when the caller brought
     none — overload control must work unobserved too). *)
  let obs, ctl_monitor =
    match config.overload with
    | None -> (obs, None)
    | Some _ ->
      let sink =
        match obs with Some sink -> sink | None -> Obs.Sink.null ()
      in
      let monitor = Obs.Monitor.create () in
      Obs.Sink.attach sink (Obs.Monitor.handle monitor);
      (Some sink, Some monitor)
  in
  let states =
    Array.of_list
      (List.mapi
         (fun index job ->
           let txn = index + 1 in
           { txn; job; fate = Fault.fate faults ~txn ~steps:(List.length job.steps);
             step_index = 0; pending = []; waiting_on = None; blocked_since = 0;
             wait_epoch = 0; total_wait = 0; restarts = 0; status = Idle;
             commit_time = 0; admitted = false })
         jobs)
  in
  let sim =
    { table; queue = Event_queue.create (); config; states;
      deadlock_aborts = 0; timeout_aborts = 0; crashed = 0; obs; now = 0;
      admission =
        Option.bind config.overload (fun (overload : overload) ->
            Option.map Robust.Admission.create overload.admission);
      budget =
        Option.bind config.overload (fun (overload : overload) ->
            Option.map Robust.Budget.create overload.budget);
      breaker =
        Option.bind config.overload (fun (overload : overload) ->
            Option.map Robust.Breaker.create overload.breaker);
      controller =
        Option.map
          (fun (overload : overload) -> overload.controller)
          config.overload;
      ctl_monitor; shed = 0; wdl_aborts = 0; retry_denied = 0 }
  in
  (* Events emitted during a run — including the lock table's own — carry
     virtual simulation time, not the sink's wall-clock default. *)
  (match obs with
   | Some sink -> Obs.Sink.set_clock sink (fun () -> float_of_int sim.now)
   | None -> ());
  Array.iter
    (fun state ->
      on_begin state.txn;
      Event_queue.schedule sim.queue ~time:state.job.arrival (Begin state))
    states;
  (match config.snapshot_every with
   | Some period when period > 0 && Array.length states > 0 ->
     Event_queue.schedule sim.queue ~time:period Snapshot
   | Some _ | None -> ());
  (match sim.controller, sim.admission with
   | Some controller, Some _ when Array.length states > 0 ->
     Event_queue.schedule sim.queue ~time:controller.Robust.Controller.every
       Control
   | _, _ -> ());
  let last_time = ref 0 in
  let rec drain () =
    match Event_queue.pop sim.queue with
    | None -> ()
    | Some (time, event) ->
      last_time := max !last_time time;
      (match config.on_advance with
       | Some hook when time > sim.now -> hook time
       | Some _ | None -> ());
      sim.now <- time;
      handle sim time event;
      if config.check_invariants then audit sim time;
      drain ()
  in
  drain ();
  let committed = ref 0 and gave_up = ref 0 and crashed = ref 0 in
  let shed = ref 0 in
  let total_response = ref 0 and total_wait = ref 0 in
  let makespan = ref 0 in
  Array.iter
    (fun state ->
      (match state.status with
       | Committed ->
         incr committed;
         total_response := !total_response + (state.commit_time - state.job.arrival);
         makespan := max !makespan state.commit_time
       | Gave_up ->
         incr gave_up;
         (* the give-up moment was recorded in commit_time, so abandoned
            jobs count toward response time instead of skewing the mean *)
         total_response :=
           !total_response + (state.commit_time - state.job.arrival)
       | Crashed ->
         incr crashed;
         total_response :=
           !total_response + (state.commit_time - state.job.arrival)
       | Shed ->
         incr shed;
         (* sheds are instant refusals (or evictions from the entry queue);
            the queueing delay until the shed is their whole response *)
         total_response :=
           !total_response + (state.commit_time - state.job.arrival)
       | Idle | Locking | Waiting | Accessing -> ());
      total_wait := !total_wait + state.total_wait)
    states;
  let stats = Table.stats table in
  { Metrics.committed = !committed;
    deadlock_aborts = sim.deadlock_aborts;
    timeout_aborts = sim.timeout_aborts;
    wdl_aborts = sim.wdl_aborts;
    gave_up = !gave_up;
    crashed = !crashed;
    shed = !shed;
    retry_denied = sim.retry_denied;
    makespan = !makespan;
    total_response = !total_response;
    total_wait = !total_wait;
    lock_requests = stats.Lockmgr.Lock_stats.requests;
    conflict_tests = stats.Lockmgr.Lock_stats.conflict_tests;
    peak_lock_entries = Table.peak_entry_count table;
    escalations = stats.Lockmgr.Lock_stats.escalations }
