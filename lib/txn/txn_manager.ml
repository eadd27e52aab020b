module Table = Lockmgr.Lock_table
module Policy = Lockmgr.Policy
module Protocol = Colock.Protocol

type config = {
  resolution : Policy.resolution;
  victim : Policy.victim;
  restart : Policy.restart;
}

let default_config =
  { resolution = Policy.Detection; victim = Policy.Youngest;
    restart = Policy.No_restart }

type t = {
  table : Table.t;
  protocol : Protocol.t option;  (* releases go through it when present *)
  clock : unit -> int;
  config : config;
  obs : Obs.Sink.t option;
  client : client;
  txns : (Table.txn_id, Transaction.t) Hashtbl.t;
      (* live transactions only: [leave] removes theirs *)
  admission : Robust.Admission.t option;
  slots : (Table.txn_id, unit) Hashtbl.t;
      (* transactions holding an admission slot, released exactly once *)
  queued : (Table.txn_id, Transaction.t * Robust.Admission.priority) Hashtbl.t;
      (* the entry queue's transactions *)
  mutable next_id : int;
  mutable epoch : int;
}

and client = {
  arm : t -> Transaction.t -> epoch:int -> deadline:int -> unit;
  undo : t -> Transaction.t -> unit;
  victim :
    t -> Transaction.t -> Transaction.abort_reason -> waited:int option -> unit;
  woken : t -> Transaction.t -> waited:int -> unit;
  admitted : t -> Transaction.t -> unit;
  shed : t -> Transaction.t -> unit;
}

(* Every emitting site tests [traced] first, so an untraced engine builds no
   event payload. *)
let traced engine = Option.is_some engine.obs

let emit engine kind =
  match engine.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

let find engine id = Hashtbl.find_opt engine.txns id

let active_txns engine =
  Hashtbl.fold (fun _id txn accu -> txn :: accu) engine.txns []
  |> List.sort (fun a b -> Int.compare a.Transaction.id b.Transaction.id)

let active_count engine = Hashtbl.length engine.txns

let protocol engine =
  match engine.protocol with
  | Some protocol -> protocol
  | None -> invalid_arg "Txn_manager.protocol: engine runs over a bare table"

let admission engine = engine.admission

let release_locks engine txn =
  match engine.protocol with
  | Some protocol -> Protocol.end_of_transaction protocol ~txn
  | None -> Table.release_all engine.table ~txn

(* ---------------------------------------------------------------- ending *)

let rec admit_queued engine =
  match engine.admission with
  | None -> ()
  | Some gate -> (
    match Robust.Admission.pop gate with
    | None -> ()
    | Some id ->
      let txn, _priority = Hashtbl.find engine.queued id in
      Hashtbl.remove engine.queued id;
      (* [pop] already took the slot for it *)
      Hashtbl.replace engine.slots id ();
      engine.client.admitted engine txn;
      admit_queued engine)

let leave engine txn =
  let id = txn.Transaction.id in
  Hashtbl.remove engine.txns id;
  match engine.admission with
  | Some gate when Hashtbl.mem engine.slots id ->
    Hashtbl.remove engine.slots id;
    Robust.Admission.release gate;
    admit_queued engine
  | Some _ | None -> ()

let reason_text = function
  | Transaction.User_abort -> "user"
  | Transaction.Deadlock_victim -> "deadlock_victim"
  | Transaction.Timeout_victim -> "timeout_victim"
  | Transaction.Contention_victim -> "contention_victim"

let finish_aborted engine txn reason =
  txn.Transaction.status <- Transaction.Aborted reason;
  if traced engine then
    emit engine
      (Obs.Event.Txn_abort
         { txn = txn.Transaction.id; reason = reason_text reason });
  leave engine txn

let waited_at now txn =
  match txn.Transaction.status with
  | Transaction.Waiting { since; _ } -> now - since
  | Transaction.Active | Transaction.Committed | Transaction.Aborted _ -> 0

(* Only a waiting transaction has a queued request to withdraw first; a
   request queued behind the engine's back still goes with the locks. *)
let release engine txn =
  let id = txn.Transaction.id in
  if Transaction.is_waiting txn then begin
    txn.Transaction.status <- Transaction.Active;
    let cancelled = Table.cancel_wait engine.table ~txn:id in
    cancelled @ release_locks engine id
  end
  else release_locks engine id

let wake engine grants =
  List.iter
    (fun grant ->
      match find engine grant.Table.g_txn with
      | Some ({ Transaction.status = Transaction.Waiting { resource; _ }; _ } as txn)
        when String.equal resource grant.Table.g_resource ->
        let waited = waited_at (engine.clock ()) txn in
        txn.Transaction.status <- Transaction.Active;
        engine.client.woken engine txn ~waited
      | Some _ | None -> ())
    grants

(* The engine's own aborts: undo, release, count and announce, let the
   client restart or finish the victim, then wake whoever the release
   granted. *)
let sacrifice engine ~now txn reason =
  let resource, waited =
    match txn.Transaction.status with
    | Transaction.Waiting { resource; since; _ } -> (resource, Some (now - since))
    | Transaction.Active | Transaction.Committed | Transaction.Aborted _ ->
      ("", None)
  in
  engine.client.undo engine txn;
  let grants = release engine txn in
  txn.Transaction.restarts <- txn.Transaction.restarts + 1;
  let stats = Table.stats engine.table in
  (match reason with
   | Transaction.Deadlock_victim ->
     stats.Lockmgr.Lock_stats.victim_aborts <-
       stats.Lockmgr.Lock_stats.victim_aborts + 1;
     if traced engine then
       emit engine
         (Obs.Event.Victim_aborted
            { txn = txn.Transaction.id; restarts = txn.Transaction.restarts })
   | Transaction.Timeout_victim ->
     stats.Lockmgr.Lock_stats.timeout_aborts <-
       stats.Lockmgr.Lock_stats.timeout_aborts + 1;
     if traced engine then
       emit engine
         (Obs.Event.Timeout_abort
            { txn = txn.Transaction.id; resource;
              waited = Option.value waited ~default:0;
              lu = Table.resource_lu engine.table resource })
   | Transaction.Contention_victim | Transaction.User_abort ->
     (* the Contention_abort event was emitted by the restart policy *)
     ());
  engine.client.victim engine txn reason ~waited;
  wake engine grants

(* ------------------------------------------------------------- admission *)

type begin_outcome =
  | Started of Transaction.t
  | Queued of Table.txn_id
  | Shed

let start engine txn =
  Hashtbl.replace engine.txns txn.Transaction.id txn;
  if traced engine then
    emit engine (Obs.Event.Txn_begin { txn = txn.Transaction.id })

let admission_event engine txn priority decision =
  if traced engine then
    emit engine
      (Obs.Event.Admission
         { txn = txn.Transaction.id;
           priority = Robust.Admission.priority_to_string priority; decision })

let shed engine txn priority =
  admission_event engine txn priority "shed";
  engine.client.shed engine txn

let enter ?(priority = Robust.Admission.Normal) engine txn =
  let id = txn.Transaction.id in
  let started () =
    start engine txn;
    Started txn
  in
  match engine.admission with
  | None -> started ()
  | Some _ when Hashtbl.mem engine.slots id -> started ()
  | Some gate -> (
    match Robust.Admission.request gate ~priority ~txn:id with
    | Robust.Admission.Admitted ->
      Hashtbl.replace engine.slots id ();
      started ()
    | Robust.Admission.Enqueued { evicted } ->
      Hashtbl.replace engine.queued id (txn, priority);
      admission_event engine txn priority "queued";
      Option.iter
        (fun evicted ->
          let evicted_txn, evicted_priority = Hashtbl.find engine.queued evicted in
          Hashtbl.remove engine.queued evicted;
          shed engine evicted_txn evicted_priority)
        evicted;
      Queued id
    | Robust.Admission.Rejected ->
      shed engine txn priority;
      Shed)

let next_txn ?kind engine =
  let id = engine.next_id in
  engine.next_id <- id + 1;
  Transaction.make ?kind ~id ~birth:(engine.clock ()) ()

let begin_txn ?kind engine =
  let txn = next_txn ?kind engine in
  start engine txn;
  txn

let try_begin ?kind ?priority engine =
  enter ?priority engine (next_txn ?kind engine)

(* --------------------------------------------------------------- clients *)

let front_door =
  { arm = (fun _engine _txn ~epoch:_ ~deadline:_ -> ());
    undo = (fun _engine _txn -> ());
    victim = (fun engine txn reason ~waited:_ -> finish_aborted engine txn reason);
    woken = (fun _engine _txn ~waited:_ -> ());
    admitted =
      (fun engine txn -> ignore (enter engine txn : begin_outcome));
    shed = (fun _engine _txn -> ()) }

let make client ?clock ?obs ?admission ?(config = default_config) locks =
  let table, protocol =
    match locks with
    | `Protocol protocol -> (Protocol.table protocol, Some protocol)
    | `Table table -> (table, None)
  in
  let clock =
    match clock with
    | Some clock -> clock
    | None ->
      let counter = ref 0 in
      fun () ->
        incr counter;
        !counter
  in
  let obs = match obs with Some _ -> obs | None -> Table.obs table in
  { table; protocol; clock; config; obs; client; txns = Hashtbl.create 64;
    admission = Option.map Robust.Admission.create admission;
    slots = Hashtbl.create 64; queued = Hashtbl.create 16;
    next_id = 1; epoch = 0 }

let create ?clock ?obs ?admission ?config protocol =
  make front_door ?clock ?obs ?admission ?config (`Protocol protocol)

(* ----------------------------------------------------------------- waits *)

let contention_abort engine ~now ~policy ~depth victim =
  if traced engine then
    emit engine
      (Obs.Event.Contention_abort { txn = victim.Transaction.id; policy; depth });
  sacrifice engine ~now victim Transaction.Contention_victim

let waiting_blocker engine id =
  match find engine id with
  | Some txn when Transaction.is_waiting txn -> Some txn
  | Some _ | None -> None

(* Thomasian-style restart policies, applied the moment a request starts
   waiting. Returns [true] when the requester itself was sacrificed. *)
let apply_restart_policy engine ~now txn blockers =
  match engine.config.restart with
  | Policy.No_restart -> false
  | Policy.Wait_depth limit as policy ->
    let depth = Table.wait_depth engine.table ~txn:txn.Transaction.id in
    if depth <= limit then false
    else begin
      (* victim: the requester or one of its waiting blockers — least work
         lost dies, ties toward the larger transaction id *)
      let score candidate =
        (candidate.Transaction.work, - candidate.Transaction.id)
      in
      let victim =
        List.fold_left
          (fun best candidate ->
            if score candidate < score best then candidate else best)
          txn
          (List.filter_map (waiting_blocker engine) blockers)
      in
      contention_abort engine ~now ~policy:(Policy.restart_to_string policy)
        ~depth victim;
      victim.Transaction.id = txn.Transaction.id
    end
  | Policy.Running_priority as policy ->
    (* a running requester never queues behind waiters: every blocker that
       is itself waiting is restarted *)
    List.iter
      (fun id ->
        match waiting_blocker engine id with
        | Some blocker ->
          contention_abort engine ~now
            ~policy:(Policy.restart_to_string policy)
            ~depth:(Table.wait_depth engine.table ~txn:id)
            blocker
        | None -> ())
      blockers;
    false

let candidate engine id =
  match find engine id with
  | Some txn ->
    { Policy.txn = id; birth = txn.Transaction.started_at;
      locks_held = List.length (Table.locks_of engine.table ~txn:id);
      work_done = txn.Transaction.work }
  | None ->
    { Policy.txn = id; birth = max_int; locks_held = max_int;
      work_done = max_int }

let wait engine txn ~resource ~blockers =
  match txn.Transaction.status with
  | Transaction.Waiting wait when String.equal wait.Transaction.resource resource ->
    (* re-issued while still queued: the wait goes on as it began, and a
       request that queues nothing new closes no cycle *)
    false
  | Transaction.Waiting _ | Transaction.Active | Transaction.Committed
  | Transaction.Aborted _ ->
    let now = engine.clock () in
    engine.epoch <- engine.epoch + 1;
    let epoch = engine.epoch in
    txn.Transaction.status <- Transaction.Waiting { resource; since = now; epoch };
    (match Policy.timeout_of engine.config.resolution with
     | Some timeout ->
       engine.client.arm engine txn ~epoch ~deadline:(now + timeout)
     | None -> ());
    apply_restart_policy engine ~now txn blockers
    || Policy.detects engine.config.resolution
       && Lockmgr.Deadlock.resolve engine.table ~obs:engine.obs
            ~victim:engine.config.victim ~candidate:(candidate engine)
            ~abort:(fun id ->
              match find engine id with
              | Some victim ->
                sacrifice engine ~now victim Transaction.Deadlock_victim
              | None -> invalid_arg "Txn_manager: unknown deadlock victim")
            ~requester:txn.Transaction.id

let expire engine txn ~epoch =
  match txn.Transaction.status with
  | Transaction.Waiting wait when wait.Transaction.epoch = epoch ->
    sacrifice engine ~now:(engine.clock ()) txn Transaction.Timeout_victim
  | Transaction.Waiting _ | Transaction.Active | Transaction.Committed
  | Transaction.Aborted _ -> ()

let expire_timeouts ?now engine =
  match Policy.timeout_of engine.config.resolution with
  | None -> []
  | Some timeout ->
    let now = match now with Some now -> now | None -> engine.clock () in
    active_txns engine
    |> List.filter (fun txn ->
           (* an earlier victim's release may have ended this wait *)
           waited_at now txn >= timeout
           && Transaction.is_waiting txn
           && begin
             sacrifice engine ~now txn Transaction.Timeout_victim;
             true
           end)

(* ------------------------------------------------------ front-door locks *)

type acquire_outcome =
  | Granted
  | Waiting of { node : Colock.Node_id.t; blockers : Table.txn_id list }
  | Deadlock_victim

let acquire engine txn ?duration node mode =
  let rec attempt () =
    match
      Protocol.acquire (protocol engine) ~txn:txn.Transaction.id ?duration node
        mode
    with
    | Protocol.Acquired _steps ->
      txn.Transaction.status <- Transaction.Active;
      txn.Transaction.work <- txn.Transaction.work + 1;
      Granted
    | Protocol.Blocked { step; blockers; _ } ->
      if wait engine txn ~resource:step.Protocol.resource ~blockers then
        Deadlock_victim
      else if Transaction.is_waiting txn then
        Waiting { node = step.Protocol.node; blockers }
      else
        (* another victim's released locks already granted our queued
           request: resume the plan instead of reporting a stale wait *)
        attempt ()
  in
  match txn.Transaction.status with
  | Transaction.Active | Transaction.Waiting _ -> attempt ()
  | Transaction.Committed | Transaction.Aborted Transaction.User_abort ->
    invalid_arg "Txn_manager.acquire: transaction is finished"
  | Transaction.Aborted _ -> Deadlock_victim  (* sacrificed while it waited *)

let commit ?(release_long = false) engine txn =
  if Transaction.is_finished txn then
    invalid_arg "Txn_manager.commit: transaction is finished";
  txn.Transaction.status <- Transaction.Committed;
  if traced engine then
    emit engine (Obs.Event.Txn_commit { txn = txn.Transaction.id });
  let grants =
    match txn.Transaction.kind, release_long with
    | Transaction.Short, _ | Transaction.Long, true ->
      release_locks engine txn.Transaction.id
    | Transaction.Long, false ->
      Protocol.commit_keeping_long_locks (protocol engine)
        ~txn:txn.Transaction.id
  in
  wake engine grants;
  leave engine txn;
  grants

let abort engine txn =
  if Transaction.is_finished txn then []
  else begin
    let grants = release engine txn in
    wake engine grants;
    finish_aborted engine txn Transaction.User_abort;
    grants
  end
