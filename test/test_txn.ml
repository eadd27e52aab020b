(* Tests for the transaction manager (strict 2PL, deadlock victims) and the
   workstation check-out/check-in environment with persistent long locks. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Value = Nf2.Value
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type env = {
  db : Nf2.Database.t;
  graph : Graph.t;
  table : Table.t;
  rights : Authz.Rights.t;
  manager : Txn.Txn_manager.t;
}

let make_env () =
  let db = Workload.Figure1.database () in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  { db; graph; table; rights; manager = Txn.Txn_manager.create protocol }

let node steps = Option.get (Node_id.of_steps steps)

(* [Txn_manager.acquire] on the node at a path of the manager's graph. *)
let acquire manager txn ?duration id mode =
  let graph = Colock.Protocol.graph (Txn.Txn_manager.protocol manager) in
  Txn.Txn_manager.acquire manager txn ?duration (Graph.node_exn graph id) mode
let cell_c1 = node [ "db1"; "seg1"; "cells"; "c1" ]
let robot_r1 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]
let robot_r2 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ]

(* ------------------------------------------------------------ Txn_manager *)

let test_begin_ids_monotonic () =
  let env = make_env () in
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  let t2 = Txn.Txn_manager.begin_txn env.manager in
  check_bool "ids grow" true (t2.Txn.Transaction.id > t1.Txn.Transaction.id);
  check_int "two active" 2 (List.length (Txn.Txn_manager.active_txns env.manager))

let test_acquire_commit_cycle () =
  let env = make_env () in
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  (match acquire env.manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "grant expected");
  let (_ : Table.grant list) = Txn.Txn_manager.commit env.manager t1 in
  check_bool "committed" true
    (t1.Txn.Transaction.status = Txn.Transaction.Committed);
  check_int "no locks left" 0
    (List.length (Table.locks_of env.table ~txn:t1.Txn.Transaction.id))

let test_finished_txns_forgotten () =
  let env = make_env () in
  let manager = env.manager in
  let last = ref [] in
  for cycle = 1 to 10_000 do
    let committed = Txn.Txn_manager.begin_txn manager in
    (match acquire manager committed robot_r1 Mode.X with
     | Txn.Txn_manager.Granted -> ()
     | _ -> Alcotest.fail "uncontended grant expected");
    let (_ : Table.grant list) = Txn.Txn_manager.commit manager committed in
    let aborted = Txn.Txn_manager.begin_txn manager in
    let (_ : Table.grant list) = Txn.Txn_manager.abort manager aborted in
    if cycle = 10_000 then last := [ committed; aborted ]
  done;
  check_int "nothing live" 0 (Txn.Txn_manager.active_count manager);
  check_int "no live list" 0
    (List.length (Txn.Txn_manager.active_txns manager));
  List.iter
    (fun txn ->
      check_bool "finished id not found" true
        (Txn.Txn_manager.find manager txn.Txn.Transaction.id = None))
    !last;
  let live = Txn.Txn_manager.begin_txn manager in
  check_int "one live" 1 (Txn.Txn_manager.active_count manager);
  check_bool "live id found" true
    (Txn.Txn_manager.find manager live.Txn.Transaction.id = Some live)

let test_acquire_after_finish_rejected () =
  let env = make_env () in
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  let (_ : Table.grant list) = Txn.Txn_manager.commit env.manager t1 in
  match acquire env.manager t1 cell_c1 Mode.S with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "finished transactions cannot acquire"

let test_waiting_and_unblock () =
  let env = make_env () in
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  let t2 = Txn.Txn_manager.begin_txn env.manager in
  (match acquire env.manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 grant");
  (match acquire env.manager t2 cell_c1 Mode.S with
   | Txn.Txn_manager.Waiting _ -> ()
   | _ -> Alcotest.fail "t2 should wait");
  check_bool "t2 waiting" true
    (match t2.Txn.Transaction.status with
     | Txn.Transaction.Waiting _ -> true
     | _ -> false);
  let (_ : Table.grant list) = Txn.Txn_manager.commit env.manager t1 in
  check_bool "the commit woke t2" true
    (t2.Txn.Transaction.status = Txn.Transaction.Active);
  (* retry completes the plan *)
  match acquire env.manager t2 cell_c1 Mode.S with
  | Txn.Txn_manager.Granted -> ()
  | _ -> Alcotest.fail "retry should succeed"

let test_deadlock_youngest_dies () =
  let env = make_env () in
  (* keep the effector library out of the picture (rule 4': S on e2 for
     both), so the cycle forms purely on the robots *)
  Authz.Rights.set_relation_default env.rights ~relation:"effectors" false;
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  let t2 = Txn.Txn_manager.begin_txn env.manager in
  (match acquire env.manager t1 robot_r1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 r1");
  (match acquire env.manager t2 robot_r2 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t2 r2");
  (match acquire env.manager t1 robot_r2 Mode.X with
   | Txn.Txn_manager.Waiting _ -> ()
   | _ -> Alcotest.fail "t1 waits for r2");
  (* t2 closing the cycle gets sacrificed (younger). *)
  (match acquire env.manager t2 robot_r1 Mode.X with
   | Txn.Txn_manager.Deadlock_victim -> ()
   | _ -> Alcotest.fail "t2 must die");
  check_bool "t2 aborted" true
    (t2.Txn.Transaction.status
     = Txn.Transaction.Aborted Txn.Transaction.Deadlock_victim);
  (* t1 can now finish *)
  match acquire env.manager t1 robot_r2 Mode.X with
  | Txn.Txn_manager.Granted -> ()
  | _ -> Alcotest.fail "t1 proceeds after victim abort"

let test_victim_abort_grants_caller () =
  let env = make_env () in
  Authz.Rights.set_relation_default env.rights ~relation:"effectors" false;
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  let t2 = Txn.Txn_manager.begin_txn env.manager in
  (match acquire env.manager t1 robot_r1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 r1");
  (match acquire env.manager t2 robot_r2 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t2 r2");
  (match acquire env.manager t2 robot_r1 Mode.X with
   | Txn.Txn_manager.Waiting _ -> ()
   | _ -> Alcotest.fail "t2 waits for r1");
  (* t1 closes the cycle but survives (t2 is younger). The victim's abort
     releases r2, whose grant satisfies this very request — the call must
     report the true outcome, not a stale wait. *)
  (match acquire env.manager t1 robot_r2 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | Txn.Txn_manager.Waiting _ ->
     Alcotest.fail "stale Waiting after victim abort unblocked the caller"
   | Txn.Txn_manager.Deadlock_victim -> Alcotest.fail "wrong victim");
  check_bool "t1 still active" true
    (t1.Txn.Transaction.status = Txn.Transaction.Active);
  check_bool "t2 aborted" true
    (t2.Txn.Transaction.status
     = Txn.Transaction.Aborted Txn.Transaction.Deadlock_victim)

let test_expire_timeouts () =
  let db = Workload.Figure1.database () in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  let now = ref 0 in
  let config =
    { Txn.Txn_manager.default_config with
      resolution = Lockmgr.Policy.Timeout 100 }
  in
  let manager =
    Txn.Txn_manager.create ~clock:(fun () -> !now) ~config protocol
  in
  let t1 = Txn.Txn_manager.begin_txn manager in
  let t2 = Txn.Txn_manager.begin_txn manager in
  (match acquire manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 grant");
  (* under Timeout there is no detection: even a conflict just waits *)
  (match acquire manager t2 cell_c1 Mode.S with
   | Txn.Txn_manager.Waiting _ -> ()
   | _ -> Alcotest.fail "t2 should wait");
  check_int "nothing expired before the deadline" 0
    (List.length (Txn.Txn_manager.expire_timeouts ~now:99 manager));
  check_bool "t2 still waiting" true
    (match t2.Txn.Transaction.status with
     | Txn.Transaction.Waiting _ -> true
     | _ -> false);
  let victims = Txn.Txn_manager.expire_timeouts ~now:100 manager in
  check_int "one victim at the deadline" 1 (List.length victims);
  check_bool "t2 timed out" true
    (t2.Txn.Transaction.status
     = Txn.Transaction.Aborted Txn.Transaction.Timeout_victim);
  check_bool "t1 unaffected" true
    (t1.Txn.Transaction.status = Txn.Transaction.Active);
  check_int "t2 holds nothing" 0
    (List.length (Table.locks_of table ~txn:t2.Txn.Transaction.id));
  (match acquire manager t2 cell_c1 Mode.S with
   | Txn.Txn_manager.Deadlock_victim -> ()
   | _ -> Alcotest.fail "t2's re-call should report its death");
  check_int "no second expiry" 0
    (List.length (Txn.Txn_manager.expire_timeouts ~now:500 manager))

(* A manager under [Timeout 100] on a clock the test moves. *)
let timeout_env ?obs () =
  let env = make_env () in
  let now = ref 0 in
  let config =
    { Txn.Txn_manager.default_config with
      resolution = Lockmgr.Policy.Timeout 100 }
  in
  let protocol = Txn.Txn_manager.protocol env.manager in
  ( env, now,
    Txn.Txn_manager.create ~clock:(fun () -> !now) ?obs ~config protocol )

let wait_on manager txn =
  match acquire manager txn cell_c1 Mode.S with
  | Txn.Txn_manager.Waiting _ -> ()
  | _ -> Alcotest.fail "should wait"

(* Each wait expires exactly at its own deadline, never before, and the
   table stays sound around every expiry. *)
let test_timeout_deadlines () =
  let env, now, manager = timeout_env () in
  let ids txns = List.map (fun txn -> txn.Txn.Transaction.id) txns in
  let t1 = Txn.Txn_manager.begin_txn manager in
  let t2 = Txn.Txn_manager.begin_txn manager in
  let t3 = Txn.Txn_manager.begin_txn manager in
  (match acquire manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 grant");
  wait_on manager t2;
  now := 100;
  wait_on manager t3;
  let expire at =
    let victims = ids (Txn.Txn_manager.expire_timeouts ~now:at manager) in
    Alcotest.(check (list string))
      "sound after expiry" [] (Table.check_invariants env.table);
    victims
  in
  Alcotest.(check (list int)) "nothing expired before 100" [] (expire 99);
  Alcotest.(check (list int))
    "T2 expires at its deadline" [ t2.Txn.Transaction.id ] (expire 100);
  Alcotest.(check (list int)) "T3 not before 200" [] (expire 199);
  Alcotest.(check (list int))
    "T3 expires at its deadline" [ t3.Txn.Transaction.id ] (expire 200);
  check_bool "t1 unaffected" true
    (t1.Txn.Transaction.status = Txn.Transaction.Active)

(* A waiter granted in the very tick its wait expires is not expired: the
   grant ends the wait record the timeout reads. *)
let test_timeout_grant_race () =
  let env, now, manager = timeout_env () in
  let t1 = Txn.Txn_manager.begin_txn manager in
  let t2 = Txn.Txn_manager.begin_txn manager in
  (match acquire manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 grant");
  wait_on manager t2;
  now := 100;
  let (_ : Table.grant list) = Txn.Txn_manager.commit manager t1 in
  check_int "granted T2 does not expire" 0
    (List.length (Txn.Txn_manager.expire_timeouts ~now:100 manager));
  check_bool "t2 active" true
    (t2.Txn.Transaction.status = Txn.Transaction.Active);
  Alcotest.(check (list string))
    "sound after the race" [] (Table.check_invariants env.table)

(* A client re-issuing a request that is still queued continues its wait:
   the deadline and the reported wait count from the first start. *)
let test_timeout_survives_reissue () =
  let sink, events = Obs.Sink.memory () in
  let _env, now, manager = timeout_env ~obs:sink () in
  let t1 = Txn.Txn_manager.begin_txn manager in
  let t2 = Txn.Txn_manager.begin_txn manager in
  (match acquire manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 grant");
  wait_on manager t2;
  now := 50;
  wait_on manager t2;
  now := 99;
  check_int "not expired before 100" 0
    (List.length (Txn.Txn_manager.expire_timeouts manager));
  now := 100;
  Alcotest.(check (list int))
    "T2 expires 100 after its first wait" [ t2.Txn.Transaction.id ]
    (List.map
       (fun txn -> txn.Txn.Transaction.id)
       (Txn.Txn_manager.expire_timeouts manager));
  let waited =
    List.filter_map
      (fun event ->
        match event.Obs.Event.kind with
        | Obs.Event.Timeout_abort { waited; _ } -> Some waited
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "the whole wait reported" [ 100 ] waited

let test_abort_releases_everything () =
  let env = make_env () in
  let t1 = Txn.Txn_manager.begin_txn env.manager in
  (match acquire env.manager t1 cell_c1 Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "grant");
  let (_ : Table.grant list) = Txn.Txn_manager.abort env.manager t1 in
  check_int "no locks" 0
    (List.length (Table.locks_of env.table ~txn:t1.Txn.Transaction.id));
  check_bool "aborted" true
    (t1.Txn.Transaction.status = Txn.Transaction.Aborted Txn.Transaction.User_abort)

let test_admission_gate () =
  let db = Workload.Figure1.database () in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  let admission =
    { Robust.Admission.default_config with
      initial = 1; min_limit = 1; max_limit = 4; queue_capacity = 1 }
  in
  let manager = Txn.Txn_manager.create ~admission protocol in
  let t1 =
    match Txn.Txn_manager.try_begin manager with
    | Txn.Txn_manager.Started txn -> txn
    | _ -> Alcotest.fail "first begin should be admitted"
  in
  (match Txn.Txn_manager.try_begin ~priority:Robust.Admission.Low manager with
   | Txn.Txn_manager.Queued _ -> ()
   | _ -> Alcotest.fail "second begin should queue");
  (* queue capacity 1 holding a Low entry: a High request displaces it *)
  let t3 =
    match Txn.Txn_manager.try_begin ~priority:Robust.Admission.High manager with
    | Txn.Txn_manager.Queued id -> id
    | _ -> Alcotest.fail "high-priority begin should queue by eviction"
  in
  let gate = Option.get (Txn.Txn_manager.admission manager) in
  check_int "eviction counted as shed" 1 (Robust.Admission.shed_count gate);
  (* equal priority against a full queue: refused outright *)
  (match Txn.Txn_manager.try_begin ~priority:Robust.Admission.High manager with
   | Txn.Txn_manager.Shed -> ()
   | _ -> Alcotest.fail "equal-priority begin should shed");
  check_int "rejection counted as shed" 2 (Robust.Admission.shed_count gate);
  check_bool "not begun while the slot is held" true
    (Txn.Txn_manager.find manager t3 = None);
  let (_ : Table.grant list) = Txn.Txn_manager.commit manager t1 in
  (match Txn.Txn_manager.find manager t3 with
   | Some t3 ->
     check_bool "queued txn began when the slot freed" true
       (not (Txn.Transaction.is_finished t3));
     let (_ : Table.grant list) = Txn.Txn_manager.commit manager t3 in ()
   | None -> Alcotest.fail "queued txn should have begun");
  check_int "all slots free after commits" 0 (Robust.Admission.inflight gate)

(* ---------------------------------------------------------------- Checkout *)

let temp_lock_file () = Filename.temp_file "colock_locks" ".txt"

let make_checkout_env () =
  let env = make_env () in
  let lock_file = temp_lock_file () in
  (env, Txn.Checkout.create ~lock_file env.manager env.db, lock_file)

let c1_oid = Oid.make ~relation:"cells" ~key:"c1"

let test_checkout_roundtrip () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok value ->
     check_bool "got the cell" true
       (match Value.field value "cell_id" with
        | Some (Value.Str "c1") -> true
        | _ -> false)
   | Error _ -> Alcotest.fail "check-out failed");
  Alcotest.(check (list string)) "checked out list" [ "cells/c1" ]
    (List.map Oid.to_string (Txn.Checkout.checked_out checkout t1));
  (* X long lock held on the object *)
  check_bool "X on c1" true
    (Mode.equal
       (Table.held env.table ~txn:t1.Txn.Transaction.id
          ~resource:"db1/seg1/cells/c1")
       Mode.X)

let test_checkout_conflict () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  let t2 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first check-out");
  match Txn.Checkout.check_out checkout t2 c1_oid ~mode:`Update with
  | Error (Txn.Checkout.Blocked _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "second exclusive check-out must block"

let test_checkout_read_shared () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  let t2 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Read with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first read check-out");
  match Txn.Checkout.check_out checkout t2 c1_oid ~mode:`Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read check-outs share"

let test_checkin_requires_exclusive () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Read with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  match Txn.Checkout.check_in checkout t1 c1_oid with
  | Error (Txn.Checkout.Not_exclusive _) -> ()
  | Error _ | Ok () -> Alcotest.fail "read check-out cannot check in"

let test_checkin_writes_back () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  let original =
    match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
    | Ok value -> value
    | Error _ -> Alcotest.fail "check-out"
  in
  (* workstation edit: rename an object *)
  let edited =
    match original with
    | Value.Tuple bindings ->
      Value.Tuple
        (List.map
           (fun (field, sub) ->
             if String.equal field "c_objects" then
               match sub with
               | Value.Set (first :: rest) ->
                 (match first with
                  | Value.Tuple member_fields ->
                    ( field,
                      Value.Set
                        (Value.Tuple
                           (List.map
                              (fun (mf, mv) ->
                                if String.equal mf "obj_name" then
                                  (mf, Value.Str "renamed")
                                else (mf, mv))
                              member_fields)
                         :: rest) )
                  | _ -> (field, sub))
               | _ -> (field, sub)
             else (field, sub))
           bindings)
    | _ -> Alcotest.fail "cell should be a tuple"
  in
  (match Txn.Checkout.update_local checkout t1 c1_oid edited with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "local update");
  (match Txn.Checkout.check_in checkout t1 c1_oid with
   | Ok () -> ()
   | Error error ->
     Alcotest.failf "check-in failed: %s"
       (Format.asprintf "%a" Txn.Checkout.pp_error error));
  let stored = Option.get (Nf2.Database.deref env.db c1_oid) in
  check_bool "central db updated" true
    (List.exists
       (Value.equal (Value.Str "renamed"))
       (Value.project stored (Path.of_string "c_objects.obj_name")))

(* A private copy whose key was edited cannot be written back: the
   check-in would store a second object, with no graph node, beside the
   one checked out. *)
let test_checkin_refuses_key_change () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  let original =
    match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
    | Ok value -> value
    | Error _ -> Alcotest.fail "check-out"
  in
  let rekeyed =
    match original with
    | Value.Tuple bindings ->
      Value.Tuple
        (List.map
           (fun (field, sub) ->
             if String.equal field "cell_id" then (field, Value.Str "c9")
             else (field, sub))
           bindings)
    | _ -> Alcotest.fail "cell should be a tuple"
  in
  (match Txn.Checkout.update_local checkout t1 c1_oid rekeyed with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "local update");
  (match Txn.Checkout.check_in checkout t1 c1_oid with
   | Error
       (Txn.Checkout.Write_back
          (Nf2.Database.Relation_error
             (Nf2.Relation.Key_changed { key = "c1"; changed_to = "c9" }))) ->
     ()
   | Ok () -> Alcotest.fail "rekeyed check-in accepted"
   | Error error ->
     Alcotest.failf "unexpected error: %s"
       (Format.asprintf "%a" Txn.Checkout.pp_error error));
  let cells = Option.get (Nf2.Database.relation env.db "cells") in
  Alcotest.(check (list string)) "cells holds only c1" [ "c1" ]
    (Nf2.Relation.keys cells);
  check_bool "c1 unchanged" true
    (Value.equal original (Option.get (Nf2.Database.deref env.db c1_oid)))

(* A check-in whose object the same transaction deleted meanwhile is
   refused whole: writing it back would store an object the instance graph
   has no node for. *)
let test_checkin_after_delete_refused () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  let executor =
    Query.Executor.create env.db (Txn.Txn_manager.protocol env.manager)
  in
  (match
     Query.Executor.delete_object executor ~txn:t1.Txn.Transaction.id c1_oid
   with
   | Ok () -> ()
   | Error error ->
     Alcotest.failf "delete failed: %a" Query.Executor.pp_error error);
  (match Txn.Checkout.check_in checkout t1 c1_oid with
   | Error
       (Txn.Checkout.Write_back
          (Nf2.Database.Relation_error (Nf2.Relation.Unknown_key "c1"))) ->
     ()
   | Ok () -> Alcotest.fail "check-in of a deleted object accepted"
   | Error error ->
     Alcotest.failf "unexpected error: %a" Txn.Checkout.pp_error error);
  let cells = Option.get (Nf2.Database.relation env.db "cells") in
  Alcotest.(check (list string)) "cells stays empty" []
    (Nf2.Relation.keys cells);
  check_bool "no graph node for c1" true
    (Graph.object_node env.graph c1_oid = None)

let test_finish_session_releases () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  let (_ : Table.grant list) = Txn.Checkout.finish_session checkout t1 in
  check_int "all locks gone" 0
    (List.length (Table.locks_of env.table ~txn:t1.Txn.Transaction.id));
  check_int "no private copies" 0
    (List.length (Txn.Checkout.checked_out checkout t1))

let test_commit_keeps_long_locks () =
  let env, checkout, _file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  let (_ : Table.grant list) = Txn.Txn_manager.commit env.manager t1 in
  (* long locks (the check-out) survive the commit *)
  check_bool "X still held" true
    (Mode.equal
       (Table.held env.table ~txn:t1.Txn.Transaction.id
          ~resource:"db1/seg1/cells/c1")
       Mode.X)

let test_locks_survive_shutdown () =
  let env, checkout, lock_file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  let held_before =
    List.length (Table.locks_of env.table ~txn:t1.Txn.Transaction.id)
  in
  Txn.Checkout.save_locks checkout;
  (* "shutdown": fresh lock table, same database *)
  let table2 = Table.create () in
  let protocol2 = Colock.Protocol.create env.graph table2 in
  let manager2 = Txn.Txn_manager.create protocol2 in
  let checkout2 = Txn.Checkout.create ~lock_file manager2 env.db in
  let restored = Txn.Checkout.restore_locks checkout2 in
  check_int "every long lock restored" held_before restored;
  check_bool "X on c1 restored" true
    (Mode.equal
       (Table.held table2 ~txn:t1.Txn.Transaction.id
          ~resource:"db1/seg1/cells/c1")
       Mode.X);
  (* another workstation still cannot check the object out *)
  let t9 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long manager2 in
  let t9 = { t9 with Txn.Transaction.id = 99 } in
  match Txn.Checkout.check_out checkout2 t9 c1_oid ~mode:`Update with
  | Error (Txn.Checkout.Blocked _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "restored lock must still protect c1"

let test_restore_tolerates_corruption () =
  (* garbage lines are skipped; valid ones still restore *)
  let env, checkout, lock_file = make_checkout_env () in
  let t1 = Txn.Txn_manager.begin_txn ~kind:Txn.Transaction.Long env.manager in
  (match Txn.Checkout.check_out checkout t1 c1_oid ~mode:`Update with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "check-out");
  Txn.Checkout.save_locks checkout;
  let valid = List.length (Table.locks_of env.table ~txn:t1.Txn.Transaction.id) in
  (* append corruption *)
  let channel = open_out_gen [ Open_append ] 0o644 lock_file in
  output_string channel "not a lock line\n";
  output_string channel "99 NOTAMODE db1/seg1\n";
  output_string channel "abc X db1/seg1\n";
  output_string channel "\n";
  close_out channel;
  let table2 = Table.create () in
  let protocol2 = Colock.Protocol.create env.graph table2 in
  let manager2 = Txn.Txn_manager.create protocol2 in
  let checkout2 = Txn.Checkout.create ~lock_file manager2 env.db in
  check_int "only valid lines restored" valid
    (Txn.Checkout.restore_locks checkout2)

let test_restore_missing_file () =
  let env = make_env () in
  let checkout =
    Txn.Checkout.create ~lock_file:"/tmp/definitely_missing_locks.txt"
      env.manager env.db
  in
  check_int "nothing restored" 0 (Txn.Checkout.restore_locks checkout)

let () =
  Alcotest.run "txn"
    [ ("manager",
       [ Alcotest.test_case "ids monotonic" `Quick test_begin_ids_monotonic;
         Alcotest.test_case "acquire/commit" `Quick test_acquire_commit_cycle;
         Alcotest.test_case "finished transactions forgotten" `Quick
           test_finished_txns_forgotten;
         Alcotest.test_case "no acquire after finish" `Quick
           test_acquire_after_finish_rejected;
         Alcotest.test_case "waiting and unblock" `Quick
           test_waiting_and_unblock;
         Alcotest.test_case "deadlock youngest dies" `Quick
           test_deadlock_youngest_dies;
         Alcotest.test_case "victim abort grants caller" `Quick
           test_victim_abort_grants_caller;
         Alcotest.test_case "expire timeouts" `Quick test_expire_timeouts;
         Alcotest.test_case "timeout deadlines" `Quick test_timeout_deadlines;
         Alcotest.test_case "timeout survives a re-issue" `Quick
           test_timeout_survives_reissue;
         Alcotest.test_case "timeout/grant race" `Quick
           test_timeout_grant_race;
         Alcotest.test_case "admission gate" `Quick test_admission_gate;
         Alcotest.test_case "abort releases" `Quick
           test_abort_releases_everything ]);
      ("checkout",
       [ Alcotest.test_case "roundtrip" `Quick test_checkout_roundtrip;
         Alcotest.test_case "conflict" `Quick test_checkout_conflict;
         Alcotest.test_case "read shared" `Quick test_checkout_read_shared;
         Alcotest.test_case "check-in requires exclusive" `Quick
           test_checkin_requires_exclusive;
         Alcotest.test_case "check-in writes back" `Quick
           test_checkin_writes_back;
         Alcotest.test_case "check-in refuses a key change" `Quick
           test_checkin_refuses_key_change;
         Alcotest.test_case "check-in after delete refused" `Quick
           test_checkin_after_delete_refused;
         Alcotest.test_case "finish session" `Quick
           test_finish_session_releases;
         Alcotest.test_case "commit keeps long locks" `Quick
           test_commit_keeps_long_locks;
         Alcotest.test_case "locks survive shutdown" `Quick
           test_locks_survive_shutdown;
         Alcotest.test_case "restore tolerates corruption" `Quick
           test_restore_tolerates_corruption;
         Alcotest.test_case "restore missing file" `Quick
           test_restore_missing_file ]) ]
