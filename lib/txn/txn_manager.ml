module Table = Lockmgr.Lock_table
module Policy = Lockmgr.Policy
module Protocol = Colock.Protocol

type config = {
  resolution : Policy.resolution;
  victim : Policy.victim;
}

let default_config =
  { resolution = Policy.Detection; victim = Policy.Youngest }

type t = {
  protocol : Protocol.t;
  clock : unit -> int;
  config : config;
  mutable next_id : int;
  mutable next_ticket : int;
  txns : (Table.txn_id, Transaction.t) Hashtbl.t;
      (* live transactions only: [commit] and [abort] remove theirs *)
  admission : Robust.Admission.t option;
  queued : (int, Transaction.kind * Robust.Admission.priority) Hashtbl.t;
  slots : (Table.txn_id, unit) Hashtbl.t;
      (* transactions holding an admission slot, released exactly once *)
  obs : Obs.Sink.t option;
}

let create ?clock ?obs ?admission ?(config = default_config) protocol =
  let counter = ref 0 in
  let default_clock () =
    incr counter;
    !counter
  in
  let obs = match obs with Some _ -> obs | None -> Protocol.obs protocol in
  { protocol; clock = Option.value ~default:default_clock clock; config;
    next_id = 1; next_ticket = 1; txns = Hashtbl.create 64;
    admission = Option.map Robust.Admission.create admission;
    queued = Hashtbl.create 16; slots = Hashtbl.create 64; obs }

let protocol manager = manager.protocol
let config manager = manager.config
let admission manager = manager.admission

(* Every emitting site tests [traced] first, so an untraced manager builds
   no event payload. *)
let traced manager = Option.is_some manager.obs

let emit manager kind =
  match manager.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

let begin_txn ?(kind = Transaction.Short) manager =
  let id = manager.next_id in
  manager.next_id <- id + 1;
  let txn =
    { Transaction.id; kind; started_at = manager.clock ();
      status = Transaction.Active; restarts = 0 }
  in
  Hashtbl.replace manager.txns id txn;
  if traced manager then emit manager (Obs.Event.Txn_begin { txn = id });
  txn

type begin_outcome =
  | Started of Transaction.t
  | Queued of int
  | Shed

let start_admitted manager kind =
  let txn = begin_txn ~kind manager in
  Hashtbl.replace manager.slots txn.Transaction.id ();
  txn

let try_begin ?(kind = Transaction.Short)
    ?(priority = Robust.Admission.Normal) manager =
  match manager.admission with
  | None -> Started (begin_txn ~kind manager)
  | Some gate ->
    let ticket = manager.next_ticket in
    manager.next_ticket <- ticket + 1;
    (match Robust.Admission.request gate ~priority ~txn:ticket with
    | Robust.Admission.Admitted -> Started (start_admitted manager kind)
    | Robust.Admission.Enqueued { evicted } ->
      Hashtbl.replace manager.queued ticket (kind, priority);
      if traced manager then
        emit manager
          (Obs.Event.Admission
             { txn = ticket;
               priority = Robust.Admission.priority_to_string priority;
               decision = "queued" });
      (match evicted with
      | None -> ()
      | Some victim ->
        if traced manager then begin
          let victim_priority =
            match Hashtbl.find_opt manager.queued victim with
            | Some (_kind, prio) -> Robust.Admission.priority_to_string prio
            | None -> "unknown"
          in
          emit manager
            (Obs.Event.Admission
               { txn = victim; priority = victim_priority; decision = "shed" })
        end;
        Hashtbl.remove manager.queued victim);
      Queued ticket
    | Robust.Admission.Rejected ->
      if traced manager then
        emit manager
          (Obs.Event.Admission
             { txn = ticket;
               priority = Robust.Admission.priority_to_string priority;
               decision = "shed" });
      Shed)

let drain_admitted manager =
  match manager.admission with
  | None -> []
  | Some gate ->
    let rec loop accu =
      match Robust.Admission.pop gate with
      | None -> List.rev accu
      | Some ticket -> (
        match Hashtbl.find_opt manager.queued ticket with
        | None ->
          (* the entry was shed after queueing; give the slot back *)
          Robust.Admission.release gate;
          loop accu
        | Some (kind, _priority) ->
          Hashtbl.remove manager.queued ticket;
          loop (start_admitted manager kind :: accu))
    in
    loop []

let release_slot manager txn =
  match manager.admission with
  | None -> ()
  | Some gate ->
    if Hashtbl.mem manager.slots txn.Transaction.id then begin
      Hashtbl.remove manager.slots txn.Transaction.id;
      Robust.Admission.release gate
    end

let find manager id = Hashtbl.find_opt manager.txns id

let active_txns manager =
  Hashtbl.fold (fun _id txn accu -> txn :: accu) manager.txns []
  |> List.sort (fun a b -> Int.compare a.Transaction.id b.Transaction.id)

let active_count manager = Hashtbl.length manager.txns

type acquire_outcome =
  | Granted
  | Waiting of {
      node : Colock.Node_id.t;
      blockers : Table.txn_id list;
    }
  | Deadlock_victim

let abort manager ?(reason = Transaction.User_abort) txn =
  let table = Protocol.table manager.protocol in
  let woken_by_cancel = Table.cancel_wait table ~txn:txn.Transaction.id in
  let woken_by_release =
    Protocol.end_of_transaction manager.protocol ~txn:txn.Transaction.id
  in
  txn.Transaction.status <- Transaction.Aborted reason;
  Hashtbl.remove manager.txns txn.Transaction.id;
  if traced manager then begin
    let reason_text =
      match reason with
      | Transaction.User_abort -> "user"
      | Transaction.Deadlock_victim -> "deadlock_victim"
      | Transaction.Timeout_victim -> "timeout_victim"
    in
    emit manager
      (Obs.Event.Txn_abort { txn = txn.Transaction.id; reason = reason_text })
  end;
  (match reason with
   | Transaction.Deadlock_victim ->
     let stats = Table.stats table in
     stats.Lockmgr.Lock_stats.victim_aborts <-
       stats.Lockmgr.Lock_stats.victim_aborts + 1;
     if traced manager then
       emit manager
         (Obs.Event.Victim_aborted
            { txn = txn.Transaction.id; restarts = txn.Transaction.restarts })
   | Transaction.Timeout_victim ->
     let stats = Table.stats table in
     stats.Lockmgr.Lock_stats.timeout_aborts <-
       stats.Lockmgr.Lock_stats.timeout_aborts + 1
   | Transaction.User_abort -> ());
  release_slot manager txn;
  woken_by_cancel @ woken_by_release

let unblocked manager grants =
  List.filter_map
    (fun grant ->
      match find manager grant.Table.g_txn with
      | Some txn -> (
        match txn.Transaction.status with
        | Transaction.Waiting _ ->
          (* only flip once even if several grants landed *)
          txn.Transaction.status <- Transaction.Active;
          Some txn
        | Transaction.Active | Transaction.Committed | Transaction.Aborted _ ->
          None)
      | None -> None)
    grants

(* Resolve deadlocks after [txn] started waiting.  Returns [true] when [txn]
   itself was sacrificed.  Victims' grants flow through {!unblocked}, so a
   waiter freed by someone else's demise is [Active] again on return. *)
let resolve_deadlock manager txn =
  let table = Protocol.table manager.protocol in
  Lockmgr.Deadlock.resolve table ~obs:manager.obs
    ~victim:manager.config.victim
    ~candidate:(fun id ->
      match find manager id with
      | Some candidate ->
        (* lock count doubles as the work proxy: the manager does not see
           its clients' steps, and locks track rollback cost *)
        let locks_held = List.length (Table.locks_of table ~txn:id) in
        { Policy.txn = id; birth = candidate.Transaction.started_at;
          locks_held; work_done = locks_held }
      | None ->
        { Policy.txn = id; birth = max_int; locks_held = max_int;
          work_done = max_int })
    ~abort:(fun id ->
      match find manager id with
      | Some victim ->
        let grants = abort manager ~reason:Transaction.Deadlock_victim victim in
        ignore (unblocked manager grants : Transaction.t list)
      | None -> invalid_arg "Txn_manager: unknown victim")
    ~requester:txn.Transaction.id

let acquire manager txn ?duration node mode =
  if Transaction.is_finished txn then
    invalid_arg "Txn_manager.acquire: transaction is finished";
  let deadline =
    match Policy.timeout_of manager.config.resolution with
    | None -> None
    | Some timeout -> Some (manager.clock () + timeout)
  in
  let rec attempt () =
    match
      Protocol.acquire manager.protocol ~txn:txn.Transaction.id ?duration
        ?deadline node mode
    with
    | Protocol.Acquired _steps ->
      txn.Transaction.status <- Transaction.Active;
      Granted
    | Protocol.Blocked { step; blockers; _ } -> (
      txn.Transaction.status <-
        Transaction.Waiting { node = step.Protocol.node; blockers };
      if
        Policy.detects manager.config.resolution
        && resolve_deadlock manager txn
      then Deadlock_victim
      else
        match txn.Transaction.status with
        | Transaction.Active ->
          (* another victim's released locks already granted our queued
             request: the wait is over, so resume the plan instead of
             reporting a wait that no release will ever end *)
          attempt ()
        | Transaction.Waiting _ | Transaction.Committed
        | Transaction.Aborted _ ->
          Waiting { node = step.Protocol.node; blockers })
  in
  attempt ()

let expire_timeouts ?now manager =
  match Policy.timeout_of manager.config.resolution with
  | None -> []
  | Some timeout ->
    let now = match now with Some now -> now | None -> manager.clock () in
    let table = Protocol.table manager.protocol in
    List.filter_map
      (fun (id, resource) ->
        match find manager id with
        | Some txn when Transaction.is_active txn ->
          (* a multi-resource waiter appears once per expired wait; the
             first abort finishes it, so the rest fall through here *)
          if traced manager then
            emit manager
              (Obs.Event.Timeout_abort
                 { txn = id; resource; waited = timeout;
                   lu = Table.resource_lu table resource });
          let grants = abort manager ~reason:Transaction.Timeout_victim txn in
          let (_ : Transaction.t list) = unblocked manager grants in
          Some txn
        | Some _ | None -> None)
      (Table.expired_waiters table ~now)

let commit ?(release_long = false) manager txn =
  if Transaction.is_finished txn then
    invalid_arg "Txn_manager.commit: transaction is finished";
  let grants =
    match txn.Transaction.kind, release_long with
    | Transaction.Short, _ | Transaction.Long, true ->
      Protocol.end_of_transaction manager.protocol ~txn:txn.Transaction.id
    | Transaction.Long, false ->
      Protocol.commit_keeping_long_locks manager.protocol
        ~txn:txn.Transaction.id
  in
  txn.Transaction.status <- Transaction.Committed;
  Hashtbl.remove manager.txns txn.Transaction.id;
  if traced manager then
    emit manager (Obs.Event.Txn_commit { txn = txn.Transaction.id });
  release_slot manager txn;
  grants
