module Transaction = Txn.Transaction

type t = {
  db : Nf2.Database.t;
  graph : Colock.Instance_graph.t;
  table : Lockmgr.Lock_table.t;
  rights : Authz.Rights.t;
  protocol : Colock.Protocol.t;
  executor : Query.Executor.t;
  manager : Txn.Txn_manager.t;
  undo : Query.Undo.t;
  time : int ref;  (* the engine's clock: one tick per begin and statement *)
}

let create ?rule ?threshold ?obs ?txn_config db =
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create ?obs () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ?rule ~rights graph table in
  let executor = Query.Executor.create ?threshold db protocol in
  let undo = Query.Undo.create () in
  Query.Undo.attach undo executor;
  (* strict 2PL: a victim's writes are undone while its X locks still hide
     them, so the requester its release wakes never reads them; a victim
     has no caller to report a failed rollback to *)
  let undo_victim _engine txn =
    match Query.Undo.rollback undo ~txn:txn.Transaction.id executor with
    | Ok _undone -> ()
    | Error error ->
      failwith
        (Format.asprintf "Session: rolling back victim T%d failed: %a"
           txn.Transaction.id Query.Executor.pp_error error)
  in
  let time = ref 0 in
  let manager =
    Txn.Txn_manager.make
      { Txn.Txn_manager.front_door with undo = undo_victim }
      ~clock:(fun () -> !time) ?config:txn_config (`Protocol protocol)
  in
  { db; graph; table; rights; protocol; executor; manager; undo; time }

let database session = session.db
let manager session = session.manager
let graph session = session.graph
let lock_table session = session.table

let begin_txn ?kind session =
  incr session.time;
  Txn.Txn_manager.begin_txn ?kind session.manager

let set_library_read_only session ~relation =
  Authz.Rights.set_relation_default session.rights ~relation false

type 'result outcome = ('result, Query.Executor.error) result

(* Runs one statement; a statement that queued waits through the engine,
   and re-runs when a victim's release already granted its request. *)
let statement session txn run =
  incr session.time;
  let rec attempt () =
    match run ~txn:txn.Transaction.id with
    | Ok _ as ok ->
      txn.Transaction.work <- txn.Transaction.work + 1;
      ok
    | Error (Query.Executor.Blocked { node; blockers; waiting = true }) as
      blocked ->
      if
        Txn.Txn_manager.wait session.manager txn
          ~resource:(Colock.Node_id.to_resource node) ~blockers
      then Error Query.Executor.Victim
      else if Transaction.is_waiting txn then blocked
      else attempt ()
    | Error _ as error -> error
  in
  match txn.Transaction.status with
  | Transaction.Active | Transaction.Waiting _ -> attempt ()
  | Transaction.Committed | Transaction.Aborted Transaction.User_abort ->
    invalid_arg "Session: transaction is finished"
  | Transaction.Aborted _ -> Error Query.Executor.Victim  (* while it waited *)

let query session txn text =
  Result.map
    (fun result -> result.Query.Executor.rows)
    (statement session txn (Query.Executor.run_string session.executor text))

let update session txn text transform =
  match statement session txn (Query.Executor.run_string session.executor text) with
  | Error _ as error -> error
  | Ok result ->
    let rec apply count = function
      | [] -> Ok count
      | row :: rest -> (
        match
          Query.Executor.apply_update session.executor
            ~txn:txn.Transaction.id row transform
        with
        | Ok () -> apply (count + 1) rest
        | Error db_error -> Error (Query.Executor.Database_error db_error))
    in
    apply 0 result.Query.Executor.rows

let insert session txn relation value =
  statement session txn (fun ~txn ->
      Query.Executor.insert_object session.executor ~txn relation value)

let delete session txn oid =
  statement session txn (fun ~txn ->
      Query.Executor.delete_object session.executor ~txn oid)

let commit session txn =
  Query.Undo.forget session.undo ~txn:txn.Transaction.id;
  ignore
    (Txn.Txn_manager.commit session.manager txn : Lockmgr.Lock_table.grant list)

let abort session txn =
  if Transaction.is_finished txn then Ok 0
  else begin
    let rolled_back =
      Query.Undo.rollback session.undo ~txn:txn.Transaction.id session.executor
    in
    ignore
      (Txn.Txn_manager.abort session.manager txn : Lockmgr.Lock_table.grant list);
    rolled_back
  end
