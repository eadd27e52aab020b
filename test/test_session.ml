(* Tests for the Session façade: queries, updates, inserts, deletes,
   commit/abort with rollback, and the Figure 7 behaviour end to end through
   the public front door. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Value = Nf2.Value
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_session () =
  let session = Session.create (Workload.Figure1.database ()) in
  Session.set_library_read_only session ~relation:"effectors";
  session

let q2 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r1' FOR UPDATE"

let q3 =
  "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
   r.robot_id = 'r2' FOR UPDATE"

let ok = function
  | Ok value -> value
  | Error error ->
    Alcotest.failf "unexpected error: %s"
      (Format.asprintf "%a" Query.Executor.pp_error error)

let trajectory_of session =
  let cell =
    Option.get
      (Nf2.Database.deref (Session.database session)
         (Oid.make ~relation:"cells" ~key:"c1"))
  in
  List.hd (Value.project cell (Path.of_string "robots.trajectory"))

let test_query_and_commit () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let rows = ok (Session.query session txn q2) in
  check_int "one row" 1 (List.length rows);
  Session.commit session txn;
  check_int "locks released" 0
    (List.length
       (Table.locks_of (Session.lock_table session) ~txn:txn.Txn.Transaction.id))

let test_figure7_through_facade () =
  let session = make_session () in
  let t2 = Session.begin_txn session in
  let t3 = Session.begin_txn session in
  let (_ : Query.Executor.row list) = ok (Session.query session t2 q2) in
  let (_ : Query.Executor.row list) = ok (Session.query session t3 q3) in
  check_int "T2 holds 10 locks" 10
    (List.length
       (Table.locks_of (Session.lock_table session) ~txn:t2.Txn.Transaction.id));
  check_int "T3 holds 10 locks" 10
    (List.length
       (Table.locks_of (Session.lock_table session) ~txn:t3.Txn.Transaction.id))

let test_update_commit_persists () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let updated =
    ok
      (Session.update session txn q2 (fun robot ->
           match robot with
           | Value.Tuple fields ->
             Value.Tuple
               (List.map
                  (fun (name, sub) ->
                    if String.equal name "trajectory" then
                      (name, Value.Str "replanned")
                    else (name, sub))
                  fields)
           | other -> other))
  in
  check_int "one row updated" 1 updated;
  Session.commit session txn;
  check_bool "persisted" true
    (Value.equal (trajectory_of session) (Value.Str "replanned"))

let test_abort_rolls_back () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let (_ : int) =
    ok
      (Session.update session txn q2 (fun robot ->
           match robot with
           | Value.Tuple fields ->
             Value.Tuple
               (List.map
                  (fun (name, sub) ->
                    if String.equal name "trajectory" then
                      (name, Value.Str "oops")
                    else (name, sub))
                  fields)
           | other -> other))
  in
  (match Session.abort session txn with
   | Ok 1 -> ()
   | Ok count -> Alcotest.failf "expected 1 record undone, got %d" count
   | Error _ -> Alcotest.fail "rollback failed");
  check_bool "change undone" true
    (Value.equal (trajectory_of session) (Value.Str "tr1"));
  check_int "locks released" 0
    (List.length
       (Table.locks_of (Session.lock_table session) ~txn:txn.Txn.Transaction.id))

let test_insert_abort_disappears () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let fresh =
    Workload.Figure1.cell ~key:"c2"
      ~objects:[ Workload.Figure1.cell_object ~id:1 ~name:"n" ]
      ~robots:[]
  in
  let oid = ok (Session.insert session txn "cells" fresh) in
  check_bool "inserted" true
    (Option.is_some (Nf2.Database.deref (Session.database session) oid));
  (match Session.abort session txn with
   | Ok 1 -> ()
   | Ok _ | Error _ -> Alcotest.fail "one undo record expected");
  check_bool "gone again" true
    (Nf2.Database.deref (Session.database session) oid = None)

let test_delete_and_commit () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let c1 = Oid.make ~relation:"cells" ~key:"c1" in
  ok (Session.delete session txn c1);
  Session.commit session txn;
  check_bool "deleted for good" true
    (Nf2.Database.deref (Session.database session) c1 = None)

let test_blocked_error_surfaces () =
  let session = make_session () in
  let t1 = Session.begin_txn session in
  let t2 = Session.begin_txn session in
  let (_ : Query.Executor.row list) = ok (Session.query session t1 q2) in
  (* same update by T2: X vs X on robot r1 *)
  match Session.query session t2 q2 with
  | Error (Query.Executor.Blocked { waiting = true; _ }) ->
    (* blocker commits; retry succeeds *)
    Session.commit session t1;
    check_bool "the commit ended T2's wait" false
      (Txn.Transaction.is_waiting t2);
    let rows = ok (Session.query session t2 q2) in
    check_int "row after retry" 1 (List.length rows)
  | Error _ | Ok _ -> Alcotest.fail "expected a queued block"

(* ------------------------------------------------- The engine's decisions *)

let set_trajectory text = function
  | Value.Tuple fields ->
    Value.Tuple
      (List.map
         (fun (name, sub) ->
           if String.equal name "trajectory" then (name, Value.Str text)
           else (name, sub))
         fields)
  | other -> other

let robot_trajectory row =
  match Value.field row.Query.Executor.value "trajectory" with
  | Some (Value.Str text) -> text
  | _ -> Alcotest.fail "robot row without a trajectory"

let robot_in_db session index =
  let cell =
    Option.get
      (Nf2.Database.deref (Session.database session)
         (Oid.make ~relation:"cells" ~key:"c1"))
  in
  match List.nth (Value.project cell (Path.of_string "robots.trajectory")) index with
  | Value.Str text -> text
  | _ -> Alcotest.fail "robot without a trajectory"

let expect_queued what = function
  | Error (Query.Executor.Blocked { waiting = true; _ }) -> ()
  | Error error ->
    Alcotest.failf "%s: expected a queued block, got %s" what
      (Format.asprintf "%a" Query.Executor.pp_error error)
  | Ok _ -> Alcotest.failf "%s: expected a queued block" what

let expect_victim what = function
  | Error Query.Executor.Victim -> ()
  | Error _ | Ok _ -> Alcotest.failf "%s: expected the victim error" what

let stats session = Table.stats (Session.lock_table session)

(* T1 runs Q2, T2 runs Q3, then each runs the other's: the second cross
   statement closes the cycle, the younger T2 dies, and T1 finishes. *)
let test_deadlock_resolved () =
  let session = make_session () in
  let t1 = Session.begin_txn session in
  let t2 = Session.begin_txn session in
  let (_ : Query.Executor.row list) = ok (Session.query session t1 q2) in
  let (_ : Query.Executor.row list) = ok (Session.query session t2 q3) in
  expect_queued "T1 crosses to r2" (Session.query session t1 q3);
  expect_victim "T2 closes the cycle" (Session.query session t2 q2);
  check_bool "T2 aborted as the victim" true
    (t2.Txn.Transaction.status
     = Txn.Transaction.Aborted Txn.Transaction.Deadlock_victim);
  check_int "T1's statement completes" 1
    (List.length (ok (Session.query session t1 q3)));
  check_int "one deadlock" 1 (stats session).Lockmgr.Lock_stats.deadlocks;
  check_int "one victim abort" 1
    (stats session).Lockmgr.Lock_stats.victim_aborts;
  check_bool "no cycle remains" true
    (Lockmgr.Deadlock.find_cycle
       ~edges:(Table.waits_for_edges (Session.lock_table session))
     = None);
  Session.commit session t1;
  check_int "table drained" 0 (Table.entry_count (Session.lock_table session))

(* T2 dies although T1 closed the cycle. Its write on r2 is undone before
   its lock on r2 goes (checked the moment the release is announced), so
   T1's re-run statement reads the original r2. T2's client learns its fate
   when it re-issues its queued statement. *)
let test_victim_writes_undone_first () =
  let session = ref None in
  let at_release = ref [] in
  let r2 = "db1/seg1/cells/c1/robots/r2" in
  let watch event =
    match event.Obs.Event.kind, !session with
    | Obs.Event.Lock_released { txn = 2; resource; _ }, Some session
      when String.equal resource r2 ->
      at_release := robot_in_db session 1 :: !at_release
    | _ -> ()
  in
  let sink = Obs.Sink.create [ watch ] in
  session := Some (Session.create ~obs:sink (Workload.Figure1.database ()));
  let session = Option.get !session in
  Session.set_library_read_only session ~relation:"effectors";
  let t1 = Session.begin_txn session in
  let t2 = Session.begin_txn session in
  check_int "T1 writes r1" 1 (ok (Session.update session t1 q2 (set_trajectory "t1")));
  check_int "T2 writes r2" 1 (ok (Session.update session t2 q3 (set_trajectory "t2")));
  expect_queued "T2 reads r1" (Session.query session t2 q2);
  match ok (Session.query session t1 q3) with
  | [ row ] ->
    Alcotest.(check (list string))
      "r2 restored before T2's lock went" [ "tr2" ] !at_release;
    Alcotest.(check string) "T1 reads r2 as it was" "tr2" (robot_trajectory row);
    check_bool "T2 was the victim" true
      (t2.Txn.Transaction.status
       = Txn.Transaction.Aborted Txn.Transaction.Deadlock_victim);
    expect_victim "T2 re-issues its statement" (Session.query session t2 q2)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Under a timeout resolution a blocked statement waits until the engine
   expires it; the victim's writes are rolled back. Session time advances
   one tick per statement, and re-issuing the queued statement does not
   restart the wait. *)
let test_timeout_expires_blocked_query () =
  let txn_config =
    { Txn.Txn_manager.default_config with
      resolution = Lockmgr.Policy.Timeout 100 }
  in
  let session =
    Session.create ~txn_config (Workload.Figure1.database ())
  in
  Session.set_library_read_only session ~relation:"effectors";
  let expire () =
    List.map
      (fun txn -> txn.Txn.Transaction.id)
      (Txn.Txn_manager.expire_timeouts (Session.manager session))
  in
  let t1 = Session.begin_txn session in
  let t2 = Session.begin_txn session in
  let (_ : int) = ok (Session.update session t1 q2 (set_trajectory "t1")) in
  let (_ : int) = ok (Session.update session t2 q3 (set_trajectory "t2")) in
  expect_queued "T2 reads r1" (Session.query session t2 q2);
  for _ = 1 to 99 do
    expect_queued "T2 re-issues" (Session.query session t2 q2)
  done;
  Alcotest.(check (list int)) "nothing expired after 99 ticks" [] (expire ());
  expect_queued "T2 re-issues" (Session.query session t2 q2);
  Alcotest.(check (list int))
    "T2 timed out after 100 ticks" [ t2.Txn.Transaction.id ] (expire ());
  check_bool "T2 aborted by the timeout" true
    (t2.Txn.Transaction.status
     = Txn.Transaction.Aborted Txn.Transaction.Timeout_victim);
  check_int "T2 holds nothing" 0
    (List.length
       (Table.locks_of (Session.lock_table session) ~txn:t2.Txn.Transaction.id));
  expect_victim "T2 re-issues its statement" (Session.query session t2 q2);
  match ok (Session.query session t1 q3) with
  | [ row ] ->
    Alcotest.(check string) "T2's write undone" "tr2" (robot_trajectory row)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Aborting a transaction the engine already aborted is a no-op. *)
let test_abort_after_victim () =
  let sink, captured = Obs.Sink.memory () in
  let session = Session.create ~obs:sink (Workload.Figure1.database ()) in
  Session.set_library_read_only session ~relation:"effectors";
  let t1 = Session.begin_txn session in
  let t2 = Session.begin_txn session in
  let (_ : Query.Executor.row list) = ok (Session.query session t1 q2) in
  let (_ : Query.Executor.row list) = ok (Session.query session t2 q3) in
  expect_queued "T1 crosses to r2" (Session.query session t1 q3);
  expect_victim "T2 closes the cycle" (Session.query session t2 q2);
  let events = List.length (captured ()) in
  let aborts = (stats session).Lockmgr.Lock_stats.victim_aborts in
  (match Session.abort session t2 with
   | Ok 0 -> ()
   | Ok count -> Alcotest.failf "expected nothing undone, got %d" count
   | Error _ -> Alcotest.fail "abort after a victim failed");
  check_int "no event" events (List.length (captured ()));
  check_int "nothing counted" aborts
    (stats session).Lockmgr.Lock_stats.victim_aborts

(* An update whose rebuilt object carries another key is refused: nothing
   is written, nothing is logged for undo, and the object keeps its key. *)
let test_update_refuses_key_change () =
  let session = make_session () in
  let txn = Session.begin_txn session in
  let rekey = function
    | Value.Tuple fields ->
      Value.Tuple
        (List.map
           (fun (name, sub) ->
             if String.equal name "cell_id" then (name, Value.Str "c9")
             else (name, sub))
           fields)
    | other -> other
  in
  (match
     Session.update session txn
       "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR UPDATE" rekey
   with
   | Error (Query.Executor.Database_error _) -> ()
   | Error error ->
     Alcotest.failf "unexpected error: %s"
       (Format.asprintf "%a" Query.Executor.pp_error error)
   | Ok count -> Alcotest.failf "key change accepted (%d rows)" count);
  let store = Option.get (Nf2.Database.relation (Session.database session) "cells") in
  Alcotest.(check (list string)) "cells keep their keys" [ "c1" ]
    (Nf2.Relation.keys store);
  check_int "nothing to undo" 0 (ok (Session.abort session txn));
  Alcotest.(check (list string)) "still only c1 after abort" [ "c1" ]
    (Nf2.Relation.keys store);
  let reader = Session.begin_txn session in
  check_int "c1 still reads" 1
    (List.length
       (ok
          (Session.query session reader
             "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR READ")))

let () =
  Alcotest.run "session"
    [ ("facade",
       [ Alcotest.test_case "query and commit" `Quick test_query_and_commit;
         Alcotest.test_case "figure 7" `Quick test_figure7_through_facade;
         Alcotest.test_case "update + commit" `Quick
           test_update_commit_persists;
         Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
         Alcotest.test_case "insert + abort" `Quick
           test_insert_abort_disappears;
         Alcotest.test_case "delete + commit" `Quick test_delete_and_commit;
         Alcotest.test_case "blocked then retry" `Quick
           test_blocked_error_surfaces;
         Alcotest.test_case "update refuses a key change" `Quick
           test_update_refuses_key_change ]);
      ("engine",
       [ Alcotest.test_case "deadlock resolved" `Quick test_deadlock_resolved;
         Alcotest.test_case "victim's writes undone first" `Quick
           test_victim_writes_undone_first;
         Alcotest.test_case "timeout expires a blocked query" `Quick
           test_timeout_expires_blocked_query;
         Alcotest.test_case "abort after a victim" `Quick
           test_abort_after_victim ]) ]
