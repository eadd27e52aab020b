(* Unit and property tests for the generic lock manager. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mode_testable = Alcotest.testable Mode.pp Mode.equal

(* ------------------------------------------------------------- Lock_mode *)

let test_mode_compat_matrix () =
  (* The classical matrix, spelled out row by row (NL row/column all true). *)
  let expect = [
    (Mode.IS, Mode.IS, true); (Mode.IS, Mode.IX, true);
    (Mode.IS, Mode.S, true); (Mode.IS, Mode.SIX, true);
    (Mode.IS, Mode.X, false);
    (Mode.IX, Mode.IX, true); (Mode.IX, Mode.S, false);
    (Mode.IX, Mode.SIX, false); (Mode.IX, Mode.X, false);
    (Mode.S, Mode.S, true); (Mode.S, Mode.SIX, false);
    (Mode.S, Mode.X, false);
    (Mode.SIX, Mode.SIX, false); (Mode.SIX, Mode.X, false);
    (Mode.X, Mode.X, false);
  ] in
  List.iter
    (fun (a, b, compatible) ->
      check_bool
        (Printf.sprintf "%s/%s" (Mode.to_string a) (Mode.to_string b))
        compatible (Mode.compatible a b))
    expect;
  List.iter
    (fun mode ->
      check_bool "NL compatible with all" true (Mode.compatible Mode.NL mode))
    Mode.all

let test_mode_sup_cases () =
  Alcotest.check mode_testable "IX+S=SIX" Mode.SIX (Mode.sup Mode.IX Mode.S);
  Alcotest.check mode_testable "IS+IX=IX" Mode.IX (Mode.sup Mode.IS Mode.IX);
  Alcotest.check mode_testable "S+X=X" Mode.X (Mode.sup Mode.S Mode.X);
  Alcotest.check mode_testable "SIX+IX=SIX" Mode.SIX (Mode.sup Mode.SIX Mode.IX);
  Alcotest.check mode_testable "NL+S=S" Mode.S (Mode.sup Mode.NL Mode.S)

let test_mode_leq () =
  check_bool "IS <= S" true (Mode.leq Mode.IS Mode.S);
  check_bool "IS <= IX" true (Mode.leq Mode.IS Mode.IX);
  check_bool "IX <= SIX" true (Mode.leq Mode.IX Mode.SIX);
  check_bool "S <= SIX" true (Mode.leq Mode.S Mode.SIX);
  check_bool "everything <= X" true (List.for_all (fun m -> Mode.leq m Mode.X) Mode.all);
  check_bool "NL <= everything" true
    (List.for_all (fun m -> Mode.leq Mode.NL m) Mode.all);
  check_bool "S not <= IX" false (Mode.leq Mode.S Mode.IX);
  check_bool "IX not <= S" false (Mode.leq Mode.IX Mode.S)

let test_mode_intention_for () =
  Alcotest.check mode_testable "for S" Mode.IS (Mode.intention_for Mode.S);
  Alcotest.check mode_testable "for IS" Mode.IS (Mode.intention_for Mode.IS);
  Alcotest.check mode_testable "for X" Mode.IX (Mode.intention_for Mode.X);
  Alcotest.check mode_testable "for IX" Mode.IX (Mode.intention_for Mode.IX);
  Alcotest.check mode_testable "for SIX" Mode.IX (Mode.intention_for Mode.SIX);
  Alcotest.check mode_testable "for NL" Mode.NL (Mode.intention_for Mode.NL)

let test_mode_strings () =
  List.iter
    (fun mode ->
      Alcotest.check (Alcotest.option mode_testable) "roundtrip" (Some mode)
        (Mode.of_string (Mode.to_string mode)))
    Mode.all;
  check_bool "bogus" true (Mode.of_string "bogus" = None)

let mode_gen = QCheck.Gen.oneofl Mode.all
let arbitrary_mode = QCheck.make ~print:Mode.to_string mode_gen

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility is symmetric" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.compatible a b = Mode.compatible b a)

let prop_sup_commutative =
  QCheck.Test.make ~name:"sup is commutative" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.equal (Mode.sup a b) (Mode.sup b a))

let prop_sup_associative =
  QCheck.Test.make ~name:"sup is associative" ~count:500
    (QCheck.triple arbitrary_mode arbitrary_mode arbitrary_mode)
    (fun (a, b, c) ->
      Mode.equal (Mode.sup a (Mode.sup b c)) (Mode.sup (Mode.sup a b) c))

let prop_sup_idempotent =
  QCheck.Test.make ~name:"sup is idempotent" ~count:50 arbitrary_mode
    (fun a -> Mode.equal (Mode.sup a a) a)

let prop_sup_upper_bound =
  QCheck.Test.make ~name:"sup is an upper bound" ~count:200
    (QCheck.pair arbitrary_mode arbitrary_mode)
    (fun (a, b) -> Mode.leq a (Mode.sup a b) && Mode.leq b (Mode.sup a b))

let prop_stronger_conflicts_more =
  (* If a is compatible with c, any mode below a is compatible with c. *)
  QCheck.Test.make ~name:"compatibility is downward closed" ~count:500
    (QCheck.triple arbitrary_mode arbitrary_mode arbitrary_mode)
    (fun (a, b, c) ->
      QCheck.assume (Mode.leq b a);
      (not (Mode.compatible a c)) || Mode.compatible b c)

(* ------------------------------------------------------------ Lock_table *)

let test_table_grant_and_conflict () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T2 S shares" true
    (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Granted);
  (match Table.request table ~txn:3 ~resource:"r" Mode.X with
   | Table.Waiting blockers ->
     Alcotest.(check (list int)) "blocked by both" [ 1; 2 ] blockers
   | Table.Granted -> Alcotest.fail "X should block");
  check_int "two granted entries" 2 (Table.entry_count table)

let test_table_release_grants_waiter () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.release table ~txn:1 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 2; g_mode; _ } ] ->
     Alcotest.check mode_testable "granted S" Mode.S g_mode
   | _ -> Alcotest.fail "expected T2 granted");
  Alcotest.check mode_testable "T2 holds S" Mode.S
    (Table.held table ~txn:2 ~resource:"r")

let test_table_fifo_fairness () =
  (* S1 granted; X2 waits; a later S3 must not overtake X2. *)
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "X should wait");
  (match Table.request table ~txn:3 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "S3 must queue behind X2");
  let grants = Table.release table ~txn:1 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 2; _ } ] -> ()
   | _ -> Alcotest.fail "X2 first");
  let grants = Table.release table ~txn:2 ~resource:"r" in
  match grants with
  | [ { Table.g_txn = 3; _ } ] -> ()
  | _ -> Alcotest.fail "S3 after X2"

let test_table_conversion () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T1 upgrades to X" true
    (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  Alcotest.check mode_testable "holds X" Mode.X
    (Table.held table ~txn:1 ~resource:"r");
  check_int "one entry only" 1 (Table.entry_count table)

let test_table_conversion_blocks_then_jumps_queue () =
  let table = Table.create () in
  check_bool "T1 S" true (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  check_bool "T2 S" true (Table.request table ~txn:2 ~resource:"r" Mode.S = Table.Granted);
  (* T3 queues for X; then T1's upgrade must be served before T3. *)
  (match Table.request table ~txn:3 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T3 should wait");
  (match Table.request table ~txn:1 ~resource:"r" Mode.X with
   | Table.Waiting blockers -> Alcotest.(check (list int)) "blocked by T2" [ 2 ] blockers
   | Table.Granted -> Alcotest.fail "upgrade must wait for T2");
  let grants = Table.release table ~txn:2 ~resource:"r" in
  (match grants with
   | [ { Table.g_txn = 1; g_mode; _ } ] ->
     Alcotest.check mode_testable "T1 upgraded" Mode.X g_mode
   | _ -> Alcotest.fail "conversion must jump the queue");
  Alcotest.check mode_testable "T1 holds X" Mode.X
    (Table.held table ~txn:1 ~resource:"r")

let test_table_covered_request_noop () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  check_bool "S under X is covered" true
    (Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  Alcotest.check mode_testable "still X" Mode.X
    (Table.held table ~txn:1 ~resource:"r")

let test_table_intention_sharing () =
  let table = Table.create () in
  check_bool "T1 IX" true (Table.request table ~txn:1 ~resource:"r" Mode.IX = Table.Granted);
  check_bool "T2 IX shares" true
    (Table.request table ~txn:2 ~resource:"r" Mode.IX = Table.Granted);
  check_bool "T3 IS shares" true
    (Table.request table ~txn:3 ~resource:"r" Mode.IS = Table.Granted);
  match Table.request table ~txn:4 ~resource:"r" Mode.S with
  | Table.Waiting _ -> ()
  | Table.Granted -> Alcotest.fail "S conflicts with IX"

let test_table_six () =
  let table = Table.create () in
  check_bool "T1 IX+S = SIX" true
    (Table.request table ~txn:1 ~resource:"r" Mode.IX = Table.Granted
     && Table.request table ~txn:1 ~resource:"r" Mode.S = Table.Granted);
  Alcotest.check mode_testable "holds SIX" Mode.SIX
    (Table.held table ~txn:1 ~resource:"r");
  (match Table.request table ~txn:2 ~resource:"r" Mode.IS with
   | Table.Granted -> ()
   | Table.Waiting _ -> Alcotest.fail "IS compatible with SIX");
  match Table.request table ~txn:3 ~resource:"r" Mode.IX with
  | Table.Waiting _ -> ()
  | Table.Granted -> Alcotest.fail "IX conflicts with SIX"

let test_table_release_all () =
  let table = Table.create () in
  check_bool "a" true (Table.request table ~txn:1 ~resource:"a" Mode.IX = Table.Granted);
  check_bool "b" true (Table.request table ~txn:1 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"b" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.release_all table ~txn:1 in
  check_int "T2 unblocked" 1 (List.length grants);
  check_int "only T2's entry remains" 1 (Table.entry_count table);
  check_bool "T1 holds nothing" true (Table.locks_of table ~txn:1 = [])

let test_table_release_short_keeps_long () =
  let table = Table.create () in
  check_bool "short" true
    (Table.request table ~txn:1 ~resource:"a" Mode.IX = Table.Granted);
  check_bool "long" true
    (Table.request table ~txn:1 ~duration:Table.Long ~resource:"b" Mode.X
     = Table.Granted);
  let (_ : Table.grant list) = Table.release_short table ~txn:1 in
  check_bool "short gone" true
    (Mode.equal Mode.NL (Table.held table ~txn:1 ~resource:"a"));
  Alcotest.check mode_testable "long kept" Mode.X
    (Table.held table ~txn:1 ~resource:"b")

(* A covered request made without waiting still marks the lock Long, so a
   check-out lock (§3.1) taken over a held Short lock survives
   release_short. *)
let test_table_nonwaiting_long_sticks () =
  let table = Table.create () in
  check_bool "short S" true
    (Table.request table ~txn:1 ~resource:"a" Mode.S = Table.Granted);
  check_bool "long S without waiting" true
    (Table.request table ~txn:1 ~wait:false ~duration:Table.Long
       ~resource:"a" Mode.S
     = Table.Granted);
  check_bool "locks_of shows Long" true
    (Table.locks_of table ~txn:1 = [ ("a", Mode.S, Table.Long) ]);
  let (_ : Table.grant list) = Table.release_short table ~txn:1 in
  Alcotest.check mode_testable "long kept" Mode.S
    (Table.held table ~txn:1 ~resource:"a")

let test_table_cancel_wait () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.request table ~txn:3 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (* T2 gives up; T3 still cannot run (T1 holds X), but when T1 releases, T3
     gets the lock directly. *)
  let grants = Table.cancel_wait table ~txn:2 in
  check_int "nothing granted yet" 0 (List.length grants);
  let grants = Table.release table ~txn:1 ~resource:"r" in
  match grants with
  | [ { Table.g_txn = 3; _ } ] -> ()
  | _ -> Alcotest.fail "T3 should be granted after cancel"

let test_table_downgrade () =
  let table = Table.create () in
  check_bool "T1 X" true (Table.request table ~txn:1 ~resource:"r" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"r" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let grants = Table.downgrade table ~txn:1 ~resource:"r" Mode.S in
  (match grants with
   | [ { Table.g_txn = 2; _ } ] -> ()
   | _ -> Alcotest.fail "downgrade to S should admit T2");
  Alcotest.check mode_testable "T1 now S" Mode.S
    (Table.held table ~txn:1 ~resource:"r")

let test_table_stats () =
  let table = Table.create () in
  let (_ : Table.outcome) = Table.request table ~txn:1 ~resource:"r" Mode.S in
  let (_ : Table.outcome) = Table.request table ~txn:2 ~resource:"r" Mode.X in
  let stats = Table.stats table in
  check_int "requests" 2 stats.Lockmgr.Lock_stats.requests;
  check_int "immediate" 1 stats.Lockmgr.Lock_stats.immediate_grants;
  check_int "waits" 1 stats.Lockmgr.Lock_stats.waits;
  check_bool "conflict tests happened" true
    (stats.Lockmgr.Lock_stats.conflict_tests > 0)

let test_table_peak_entries () =
  let table = Table.create () in
  List.iter
    (fun resource ->
      match Table.request table ~txn:1 ~resource Mode.S with
      | Table.Granted -> ()
      | Table.Waiting _ -> Alcotest.fail "grant expected")
    [ "a"; "b"; "c" ];
  let (_ : Table.grant list) = Table.release_all table ~txn:1 in
  check_int "entries back to 0" 0 (Table.entry_count table);
  check_int "peak saw 3" 3 (Table.peak_entry_count table)

let test_table_waits_for_edges () =
  let table = Table.create () in
  check_bool "T1 X a" true (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  check_bool "T2 X b" true (Table.request table ~txn:2 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:1 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.request table ~txn:2 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  let edges = Table.waits_for_edges table in
  check_bool "1 waits for 2" true (List.mem (1, 2) edges);
  check_bool "2 waits for 1" true (List.mem (2, 1) edges)

(* ---------------------------------------------------------------- Deadlock *)

let test_deadlock_simple_cycle () =
  match Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 1) ] with
  | Some cycle ->
    check_bool "both in cycle" true (List.mem 1 cycle && List.mem 2 cycle)
  | None -> Alcotest.fail "cycle expected"

let test_deadlock_no_cycle () =
  check_bool "acyclic" true
    (Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 3); (1, 3) ] = None)

let test_deadlock_long_cycle () =
  match
    Lockmgr.Deadlock.find_cycle ~edges:[ (1, 2); (2, 3); (3, 4); (4, 1); (2, 5) ]
  with
  | Some cycle -> check_int "cycle of 4" 4 (List.length cycle)
  | None -> Alcotest.fail "cycle expected"

let test_deadlock_via_table () =
  (* Classic AB-BA through the real table. *)
  let table = Table.create () in
  let granted outcome = outcome = Table.Granted in
  check_bool "T1 a" true (granted (Table.request table ~txn:1 ~resource:"a" Mode.X));
  check_bool "T2 b" true (granted (Table.request table ~txn:2 ~resource:"b" Mode.X));
  check_bool "T1 waits b" false (granted (Table.request table ~txn:1 ~resource:"b" Mode.X));
  check_bool "T2 waits a" false (granted (Table.request table ~txn:2 ~resource:"a" Mode.X));
  (match Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) with
   | Some _ -> ()
   | None -> Alcotest.fail "deadlock expected");
  (* abort the victim: cancel waits + release; survivor proceeds *)
  let (_ : Table.grant list) = Table.cancel_wait table ~txn:2 in
  let grants = Table.release_all table ~txn:2 in
  check_bool "T1 granted b" true
    (List.exists (fun grant -> grant.Table.g_txn = 1) grants);
  check_bool "no more cycle" true
    (Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) = None)

(* ------------------------------------------------------------------ Policy *)

module Policy = Lockmgr.Policy

let candidate txn birth locks_held work_done =
  { Policy.txn; birth; locks_held; work_done }

let test_policy_choose_victim () =
  let candidates =
    [ candidate 1 10 5 3; candidate 2 30 1 9; candidate 3 20 5 1 ]
  in
  check_int "youngest: largest birth dies" 2
    (Policy.choose_victim Policy.Youngest candidates);
  check_int "oldest: smallest birth dies" 1
    (Policy.choose_victim Policy.Oldest candidates);
  check_int "fewest locks dies" 2
    (Policy.choose_victim Policy.Fewest_locks candidates);
  check_int "least work dies" 3
    (Policy.choose_victim Policy.Least_work candidates);
  (* ties break toward the largest transaction id *)
  check_int "tie -> largest id" 3
    (Policy.choose_victim Policy.Fewest_locks
       [ candidate 1 0 5 0; candidate 3 0 5 0 ])

let test_policy_backoff () =
  check_int "fixed is flat" 50
    (Policy.delay (Policy.Fixed 50) ~restarts:7 ~txn:3);
  let exponential = Policy.Exponential { base = 10; cap = 400; seed = 1 } in
  let delay restarts txn = Policy.delay exponential ~restarts ~txn in
  (* deterministic: same inputs, same jittered delay *)
  check_int "pure" (delay 3 5) (delay 3 5);
  (* jitter stays within [raw/2, raw] and respects the cap *)
  List.iter
    (fun restarts ->
      let raw = min 400 (10 * (1 lsl min restarts 16)) in
      let value = delay restarts 9 in
      check_bool "within band" true (value >= raw / 2 && value <= raw))
    [ 0; 1; 2; 3; 5; 8; 30 ];
  (* different txns desynchronize (at least somewhere in a small range) *)
  check_bool "jitter varies by txn" true
    (List.exists
       (fun txn -> delay 4 txn <> delay 4 (txn + 1))
       [ 1; 2; 3; 4; 5 ])

(* Regression pin for the saturation fix: once [base * 2^restarts] passes the
   cap, every further restart must keep returning cap-band delays — even for
   bases large enough that the multiplication itself would wrap. *)
let test_policy_backoff_saturates () =
  let exponential = Policy.Exponential { base = 100; cap = 800; seed = 3 } in
  let delay restarts = Policy.delay exponential ~restarts ~txn:7 in
  (* the capped sequence: raw envelope 100,200,400,800,800,... and from the
     saturation point on the jittered value itself is pinned *)
  List.iteri
    (fun restarts raw ->
      let value = delay restarts in
      check_bool
        (Printf.sprintf "restart %d in [%d,%d]" restarts (raw / 2) raw)
        true
        (value >= raw / 2 && value <= raw))
    [ 100; 200; 400; 800; 800; 800; 800; 800 ];
  (* beyond the doubling clamp (16) the envelope stays pinned at the cap
     (jitter still varies per restart, but only inside [cap/2, cap]) *)
  List.iter
    (fun restarts ->
      let value = delay restarts in
      check_bool
        (Printf.sprintf "clamped tail restart %d in cap band" restarts)
        true
        (value >= 400 && value <= 800))
    [ 17; 40; 1_000_000 ];
  (* a base that would overflow 63-bit ints after 16 doublings must
     saturate at the cap, not wrap negative *)
  let huge = Policy.Exponential { base = max_int / 8; cap = 500; seed = 1 } in
  List.iter
    (fun restarts ->
      let value = Policy.delay huge ~restarts ~txn:11 in
      check_bool
        (Printf.sprintf "huge base restart %d stays in cap band" restarts)
        true
        (value >= 250 && value <= 500))
    [ 0; 1; 2; 5; 16; 30; 1000 ]

let test_policy_strings () =
  check_bool "detection" true
    (Policy.resolution_of_string "detection" = Ok Policy.Detection);
  check_bool "timeout default" true
    (Policy.resolution_of_string "timeout"
     = Ok (Policy.Timeout Policy.default_timeout));
  check_bool "timeout:250" true
    (Policy.resolution_of_string "timeout:250" = Ok (Policy.Timeout 250));
  check_bool "hybrid:90" true
    (Policy.resolution_of_string "hybrid:90" = Ok (Policy.Hybrid 90));
  check_bool "junk rejected" true
    (match Policy.resolution_of_string "sometimes" with
     | Error _ -> true
     | Ok _ -> false);
  check_bool "victims" true
    (Policy.victim_of_string "fewest-locks" = Ok Policy.Fewest_locks);
  check_bool "fixed backoff" true
    (Policy.backoff_of_string "fixed:30" = Ok (Policy.Fixed 30));
  check_bool "exp backoff" true
    (Policy.backoff_of_string "exp:10:200:7"
     = Ok (Policy.Exponential { base = 10; cap = 200; seed = 7 }));
  check_bool "restart none" true
    (Policy.restart_of_string "none" = Ok Policy.No_restart);
  check_bool "restart wdl default" true
    (Policy.restart_of_string "wdl"
     = Ok (Policy.Wait_depth Policy.default_wait_depth));
  check_bool "restart wdl:2" true
    (Policy.restart_of_string "wdl:2" = Ok (Policy.Wait_depth 2));
  check_bool "restart running-priority" true
    (Policy.restart_of_string "running-priority" = Ok Policy.Running_priority);
  check_bool "restart wdl:0 rejected" true
    (match Policy.restart_of_string "wdl:0" with
     | Error _ -> true
     | Ok _ -> false);
  (* round trips *)
  List.iter
    (fun text ->
      match Policy.resolution_of_string text with
      | Ok resolution ->
        check_bool ("round trip " ^ text) true
          (Policy.resolution_to_string resolution = text)
      | Error message -> Alcotest.fail message)
    [ "detection"; "timeout:250"; "hybrid:90" ];
  List.iter
    (fun text ->
      match Policy.restart_of_string text with
      | Ok restart ->
        check_bool ("round trip " ^ text) true
          (Policy.restart_to_string restart = text)
      | Error message -> Alcotest.fail message)
    [ "none"; "wdl:1"; "wdl:3"; "running-priority" ]

(* ------------------------------------------------------------ Invariants *)

(* A waiter granted in the same tick a timeout handler decided to abort it:
   the handler's late [cancel_wait] finds nothing queued and corrupts
   nothing. (When a wait expires is the transaction engine's business.) *)
let test_table_late_cancel_wait () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  (match Table.release_all table ~txn:1 with
   | [ grant ] -> check_int "T2 granted" 2 grant.Table.g_txn
   | grants -> Alcotest.failf "expected one grant, got %d" (List.length grants));
  Alcotest.(check (list string))
    "sound after the grant" []
    (Table.check_invariants table);
  Alcotest.(check int)
    "stale cancel_wait is a no-op" 0
    (List.length (Table.cancel_wait table ~txn:2));
  check_bool "T2 still holds a" true
    (Table.held table ~txn:2 ~resource:"a" = Mode.X);
  Alcotest.(check (list string))
    "still sound" [] (Table.check_invariants table)

(* wait_depth measures the longest blocker chain, and cycles stay finite *)
let test_table_wait_depth () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  check_bool "T2 X b" true
    (Table.request table ~txn:2 ~resource:"b" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"a" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T2 should wait on a");
  (match Table.request table ~txn:3 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T3 should wait on b");
  check_int "running T1 has depth 0" 0 (Table.wait_depth table ~txn:1);
  check_int "T2 waits on T1" 1 (Table.wait_depth table ~txn:2);
  check_int "T3 -> T2 -> T1" 2 (Table.wait_depth table ~txn:3);
  (* close the cycle: T1 wants b, so T1 -> T2 -> T1; depth stays finite *)
  (match Table.request table ~txn:1 ~resource:"b" Mode.X with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "T1 should wait on b");
  check_bool "cycle depth finite" true (Table.wait_depth table ~txn:1 <= 3)

let test_table_check_invariants_clean () =
  let table = Table.create () in
  check_bool "T1 X a" true
    (Table.request table ~txn:1 ~resource:"a" Mode.X = Table.Granted);
  (match Table.request table ~txn:2 ~resource:"a" Mode.S with
   | Table.Waiting _ -> ()
   | Table.Granted -> Alcotest.fail "should wait");
  check_bool "T1 IS b" true
    (Table.request table ~txn:1 ~resource:"b" Mode.IS = Table.Granted);
  Alcotest.(check (list string)) "sound" [] (Table.check_invariants table);
  let (_ : Table.grant list) = Table.release_all table ~txn:1 in
  let (_ : Table.grant list) = Table.release_all table ~txn:2 in
  Alcotest.(check (list string)) "sound after drain" []
    (Table.check_invariants table);
  check_int "empty" 0 (Table.entry_count table)

(* Satellite of the trail-set change: repeated resolution over several
   overlapping cycles must terminate and leave an acyclic graph. *)
let test_deadlock_overlapping_cycles_terminate () =
  let table = Table.create () in
  let granted outcome = outcome = Table.Granted in
  (* T1..T4 each hold their own resource, then everyone wants everyone
     else's in a pattern with overlapping cycles 1-2, 2-3, 3-4, 4-1. *)
  List.iter
    (fun txn ->
      check_bool "own" true
        (granted
           (Table.request table ~txn ~resource:(string_of_int txn) Mode.X)))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun (txn, wanted) ->
      check_bool "waits" false
        (granted (Table.request table ~txn ~resource:wanted Mode.X)))
    [ (1, "2"); (2, "1"); (2, "3"); (3, "2"); (3, "4"); (4, "3"); (4, "1");
      (1, "4") ];
  let aborts = ref 0 and detected = ref 0 in
  let sink =
    Obs.Sink.create
      [ (fun event ->
          match event.Obs.Event.kind with
          | Obs.Event.Deadlock_detected _ -> incr detected
          | _ -> ()) ]
  in
  let sacrificed =
    Lockmgr.Deadlock.resolve table ~obs:(Some sink) ~victim:Policy.Youngest
      ~candidate:(fun txn -> candidate txn txn 0 0)
      ~abort:(fun victim ->
        incr aborts;
        if !aborts > 16 then Alcotest.fail "resolution did not terminate";
        ignore (Table.release_all table ~txn:victim : Table.grant list))
      ~requester:0
  in
  check_bool "an absent requester is never the victim" false sacrificed;
  check_bool "took at least one abort" true (!aborts >= 1);
  check_int "every cycle counted" !aborts (Table.stats table).deadlocks;
  check_int "every cycle reported" !aborts !detected;
  check_bool "acyclic afterwards" true
    (Lockmgr.Deadlock.find_cycle ~edges:(Table.waits_for_edges table) = None);
  Alcotest.(check (list string)) "table still sound" []
    (Table.check_invariants table)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compat_symmetric; prop_sup_commutative; prop_sup_associative;
      prop_sup_idempotent; prop_sup_upper_bound; prop_stronger_conflicts_more ]

(* Every emitting operation once: immediate and covered grants, both
   non-waiting outcomes, a wait behind a granted group, a conversion that
   waits and then jumps the queue, downgrade, cancel_wait, release and
   release_all. *)
let event_script table =
  let request ?wait txn resource mode =
    ignore (Table.request table ~txn ?wait ~resource mode : Table.outcome)
  in
  let settle grants = ignore (grants : Table.grant list) in
  request 1 "r" Mode.S;
  request 1 "r" Mode.IS;
  request 2 "r" Mode.S;
  request ~wait:false 3 "r" Mode.X;
  request ~wait:false 3 "q" Mode.X;
  request 3 "r" Mode.X;
  request 1 "r" Mode.X;
  settle (Table.downgrade table ~txn:2 ~resource:"r" Mode.IS);
  settle (Table.cancel_wait table ~txn:3);
  settle (Table.release table ~txn:2 ~resource:"r");
  settle (Table.release_all table ~txn:1);
  settle (Table.release_all table ~txn:3)

(* The script's events as the table emitted them before payloads were
   gated on the sink. *)
(* An event's trace line, as a JSONL sink writes it, without the newline. *)
let event_line event =
  let buffer = Buffer.create 128 in
  Obs.Event.add_line buffer event;
  Buffer.sub buffer 0 (Buffer.length buffer - 1)

let script_events =
  [ {|{"event": "lock_requested","time": 0,"txn": 1,"resource": "r","mode": "S","lu": "BLU","depth": 1}|};
    {|{"event": "lock_granted","time": 0,"txn": 1,"resource": "r","mode": "S","immediate": true,"lu": "BLU","depth": 1}|};
    {|{"event": "lock_requested","time": 0,"txn": 1,"resource": "r","mode": "IS","lu": "BLU","depth": 1}|};
    {|{"event": "lock_granted","time": 0,"txn": 1,"resource": "r","mode": "S","immediate": true,"lu": "BLU","depth": 1}|};
    {|{"event": "lock_requested","time": 0,"txn": 2,"resource": "r","mode": "S","lu": "BLU","depth": 1}|};
    {|{"event": "lock_granted","time": 0,"txn": 2,"resource": "r","mode": "S","immediate": true,"lu": "BLU","depth": 1}|};
    {|{"event": "lock_requested","time": 0,"txn": 3,"resource": "r","mode": "X","lu": "BLU","depth": 1}|};
    {|{"event": "lock_requested","time": 0,"txn": 3,"resource": "q","mode": "X","lu": "BLU","depth": 1}|};
    {|{"event": "lock_granted","time": 0,"txn": 3,"resource": "q","mode": "X","immediate": true,"lu": "BLU","depth": 1}|};
    {|{"event": "lock_requested","time": 0,"txn": 3,"resource": "r","mode": "X","lu": "BLU","depth": 1}|};
    {|{"event": "lock_waited","time": 0,"txn": 3,"resource": "r","mode": "X","blockers": [1,2],"lu": "BLU","depth": 1,"holders": [{"txn": 1,"mode": "S","lu": "BLU","depth": 1},{"txn": 2,"mode": "S","lu": "BLU","depth": 1}]}|};
    {|{"event": "lock_requested","time": 0,"txn": 1,"resource": "r","mode": "X","lu": "BLU","depth": 1}|};
    {|{"event": "lock_waited","time": 0,"txn": 1,"resource": "r","mode": "X","blockers": [2],"lu": "BLU","depth": 1,"holders": [{"txn": 2,"mode": "S","lu": "BLU","depth": 1}]}|};
    {|{"event": "lock_released","time": 0,"txn": 2,"resource": "r","lu": "BLU","depth": 1}|};
    {|{"event": "conversion","time": 0,"txn": 1,"resource": "r","from": "S","to": "X","lu": "BLU","depth": 1}|};
    {|{"event": "lock_granted","time": 0,"txn": 1,"resource": "r","mode": "X","immediate": false,"lu": "BLU","depth": 1,"holders": [{"txn": 2,"mode": "S","lu": "BLU","depth": 1}]}|};
    {|{"event": "lock_released","time": 0,"txn": 1,"resource": "r","lu": "BLU","depth": 1}|};
    {|{"event": "lock_released","time": 0,"txn": 3,"resource": "q","lu": "BLU","depth": 1}|} ]

let test_table_untraced_does_no_event_work () =
  let calls = ref 0 in
  let meta resource =
    incr calls;
    Some { Obs.Event.lu_kind = "BLU"; lu_depth = String.length resource }
  in
  let untraced = Table.create ~meta () in
  event_script untraced;
  check_int "no meta lookup without a sink" 0 !calls;
  let emitted = ref [] in
  let sink =
    Obs.Sink.create
      [ (fun event ->
          emitted := event_line event :: !emitted)
      ]
  in
  let traced = Table.create ~obs:sink ~meta () in
  event_script traced;
  Alcotest.(check (list string))
    "traced events unchanged" script_events (List.rev !emitted);
  let counters table =
    let stats = Table.stats table in
    Lockmgr.Lock_stats.
      [ stats.requests; stats.immediate_grants; stats.waits;
        stats.conversions; stats.conflict_tests; stats.releases ]
  in
  Alcotest.(check (list int))
    "counters agree" (counters traced) (counters untraced)

(* ------------------------------------------- One decision, two flags *)

type op =
  | Request of {
      txn : int;
      resource : string;
      mode : Mode.t;
      duration : Table.duration;
      wait : bool;
    }
  | Release of int * string
  | Downgrade of int * string * Mode.t
  | Cancel_wait of int
  | Release_short of int
  | Release_all of int

let lockstep_txns = [ 1; 2; 3 ]

let op_to_string = function
  | Request { txn; resource; mode; duration; wait } ->
    Printf.sprintf "T%d %s %s%s%s" txn resource (Mode.to_string mode)
      (match duration with Table.Long -> " long" | Table.Short -> "")
      (if wait then "" else " nowait")
  | Release (txn, resource) -> Printf.sprintf "T%d release %s" txn resource
  | Downgrade (txn, resource, mode) ->
    Printf.sprintf "T%d downgrade %s %s" txn resource (Mode.to_string mode)
  | Cancel_wait txn -> Printf.sprintf "T%d cancel_wait" txn
  | Release_short txn -> Printf.sprintf "T%d release_short" txn
  | Release_all txn -> Printf.sprintf "T%d release_all" txn

let gen_op =
  let open QCheck.Gen in
  let txn = oneofl lockstep_txns and resource = oneofl [ "a"; "b"; "c" ] in
  let mode = oneofl [ Mode.IS; Mode.IX; Mode.S; Mode.SIX; Mode.X ] in
  frequency
    [ ( 6,
        map3
          (fun (txn, resource) (mode, long) wait ->
            Request
              { txn; resource; mode; wait;
                duration = (if long then Table.Long else Table.Short) })
          (pair txn resource) (pair mode bool) bool );
      (1, map2 (fun txn resource -> Release (txn, resource)) txn resource);
      ( 1,
        map3 (fun txn resource mode -> Downgrade (txn, resource, mode)) txn
          resource mode );
      (1, map (fun txn -> Cancel_wait txn) txn);
      (1, map (fun txn -> Release_short txn) txn);
      (1, map (fun txn -> Release_all txn) txn) ]

let queued table txn = Table.waiting_of table ~txn <> []

(* Applies one operation as every caller does: a queued transaction issues
   no request, and a downgrade only ever weakens. [None] when skipped. *)
let apply ?wait table op =
  let settle grants = ignore (grants : Table.grant list) in
  match op with
  | Request { txn; _ } when queued table txn -> None
  | Request { txn; resource; mode; duration; wait = op_wait } ->
    let wait = Option.value wait ~default:op_wait in
    Some (Table.request table ~txn ~wait ~duration ~resource mode)
  | Release (txn, resource) ->
    settle (Table.release table ~txn ~resource);
    None
  | Downgrade (txn, resource, mode) ->
    if Mode.leq mode (Table.held table ~txn ~resource) then
      settle (Table.downgrade table ~txn ~resource mode);
    None
  | Cancel_wait txn ->
    settle (Table.cancel_wait table ~txn);
    None
  | Release_short txn ->
    settle (Table.release_short table ~txn);
    None
  | Release_all txn ->
    settle (Table.release_all table ~txn);
    None

(* Everything a caller can observe of a table, less the stats [except]
   names. *)
let observe ?(except = []) table =
  ( Format.asprintf "%a" Table.pp table,
    Table.waits_for_edges table,
    List.map
      (fun txn -> (Table.locks_of table ~txn, Table.waiting_of table ~txn))
      lockstep_txns,
    List.filter
      (fun (name, _value) -> not (List.mem name except))
      (Lockmgr.Lock_stats.row (Table.stats table)) )

(* Replays each prefix on two fresh tables and applies the next request
   waiting on one and not waiting on the other: both must reach the same
   decision, and a blocked non-waiting request must leave its table as it
   found it, apart from the request and conflict-test counters. *)
let prop_wait_flag_lockstep =
  QCheck.Test.make ~count:300 ~name:"wait and no-wait requests decide alike"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 24) gen_op))
    (fun ops ->
      let replay prefix =
        let table = Table.create () in
        List.iter
          (fun op -> ignore (apply table op : Table.outcome option))
          prefix;
        table
      in
      let rec check prefix = function
        | [] -> true
        | op :: rest ->
          let waiting = replay (List.rev prefix) in
          let trying = replay (List.rev prefix) in
          let counted = [ "requests"; "conflict_tests" ] in
          let before = observe ~except:counted trying in
          let agree =
            match apply ~wait:true waiting op, apply ~wait:false trying op with
            | None, None -> true
            | Some Table.Granted, Some Table.Granted ->
              observe waiting = observe trying
            | Some (Table.Waiting queued), Some (Table.Waiting blockers) ->
              queued = blockers && observe ~except:counted trying = before
            | Some _, _ | None, _ -> false
          in
          if agree then check (op :: prefix) rest
          else
            QCheck.Test.fail_reportf "diverged at %s" (op_to_string op)
      in
      check [] ops)

(* ------------------------------- Lockstep with the string-set table *)

(* [Lock_table_oracle.Lock_table] is the table as it was while its
   per-transaction index was a set of resource strings, copied verbatim. Both
   tables run the same operations, traced through the same resolvers on a
   fixed clock, and must agree on everything a caller can observe after every
   one: what [withdraw] returns and emits depends on the order it visits a
   transaction's resources in, so the resources below sort differently from
   the order they are first locked in. *)
module Oracle = Lock_table_oracle.Lock_table

type oracle_op = Table_op of op | Set_meta of int

let oracle_resources = [ "a"; "a/b"; "ab"; "a//b"; "b" ]

(* Resolver [k]: a tag naming [k], or none for some resources, so both the
   kept tag and the re-asked unresolved one are exercised. *)
let resolver k resource =
  if (k + String.length resource) mod 3 = 0 then None
  else
    Some
      { Obs.Event.lu_kind = Printf.sprintf "R%d" k;
        lu_depth = String.length resource }

let oracle_op_to_string = function
  | Table_op op -> op_to_string op
  | Set_meta k -> Printf.sprintf "set_meta R%d" k

let gen_oracle_op txns =
  let open QCheck.Gen in
  let txn = int_range 1 txns and resource = oneofl oracle_resources in
  let mode = oneofl Mode.all in
  let table_op op = Table_op op in
  frequency
    [ ( 8,
        map3
          (fun (txn, resource) (mode, long) wait ->
            table_op
              (Request
                 { txn; resource; mode; wait;
                   duration = (if long then Table.Long else Table.Short) }))
          (pair txn resource) (pair mode bool) bool );
      ( 2,
        map2 (fun txn resource -> table_op (Release (txn, resource))) txn
          resource );
      ( 1,
        map3
          (fun txn resource mode -> table_op (Downgrade (txn, resource, mode)))
          txn resource mode );
      (1, map (fun txn -> table_op (Cancel_wait txn)) txn);
      (1, map (fun txn -> table_op (Release_short txn)) txn);
      (1, map (fun txn -> table_op (Release_all txn)) txn);
      (1, map (fun k -> Set_meta k) (int_range 0 2)) ]

type side = {
  outcome : int list option;  (* [None] for a grant, else the blockers *)
  grants : (int * string * Mode.t) list;
  events : string list;
  view : string list;
}

(* A traced table on a fixed clock, with the events since the last call. *)
let recorder () =
  let events = ref [] in
  let sink =
    Obs.Sink.create ~clock:(fun () -> 0.0)
      [ (fun event ->
          events := event_line event :: !events) ]
  in
  let drain () =
    let recorded = List.rev !events in
    events := [];
    recorded
  in
  (sink, drain)

let show_stats (stats : Lockmgr.Lock_stats.t) =
  String.concat " "
    (List.map
       (fun (name, value) -> Printf.sprintf "%s=%g" name value)
       (Lockmgr.Lock_stats.row stats))

let show_mode_list pairs =
  String.concat ","
    (List.map
       (fun (key, mode) -> Printf.sprintf "%s:%s" key (Mode.to_string mode))
       pairs)

(* The two views are built by one function over the operations each table
   answers, so a field cannot be compared on one side only. *)
let view ~pp ~stats ~entry_count ~peak ~resources ~holders ~held ~locks_of
    ~waiting_of ~edges ~depth ~waiters ~lu ~invariants txns =
  let each_txn f = List.init txns (fun index -> f (index + 1)) in
  [ Format.asprintf "%a" pp ();
    show_stats stats;
    Printf.sprintf "entries=%d peak=%d waiters=%d" entry_count peak waiters;
    String.concat "," resources;
    String.concat ";"
      (List.map
         (fun resource ->
           Printf.sprintf "%s<-%s%s" resource
             (show_mode_list
                (List.map
                   (fun (txn, mode) -> (string_of_int txn, mode))
                   (holders resource)))
             (match lu resource with
              | None -> ""
              | Some { Obs.Event.lu_kind; lu_depth } ->
                Printf.sprintf "[%s/%d]" lu_kind lu_depth))
         oracle_resources);
    String.concat ";"
      (each_txn (fun txn ->
           Printf.sprintf "T%d held %s locks %s waits %s depth %d" txn
             (show_mode_list
                (List.map
                   (fun resource -> (resource, held txn resource))
                   oracle_resources))
             (String.concat ","
                (List.map
                   (fun (resource, mode, long) ->
                     Printf.sprintf "%s:%s%s" resource (Mode.to_string mode)
                       (if long then "(long)" else ""))
                   (locks_of txn)))
             (show_mode_list (waiting_of txn))
             (depth txn)));
    String.concat ","
      (List.map (fun (waiter, blocker) -> Printf.sprintf "%d>%d" waiter blocker)
         edges);
    String.concat "; " invariants ]

let table_view table txns =
  view
    ~pp:(fun formatter () -> Table.pp formatter table)
    ~stats:(Table.stats table) ~entry_count:(Table.entry_count table)
    ~peak:(Table.peak_entry_count table) ~resources:(Table.resources table)
    ~holders:(fun resource -> Table.holders table ~resource)
    ~held:(fun txn resource -> Table.held table ~txn ~resource)
    ~locks_of:(fun txn ->
      List.map
        (fun (resource, mode, duration) ->
          (resource, mode, duration = Table.Long))
        (Table.locks_of table ~txn))
    ~waiting_of:(fun txn -> Table.waiting_of table ~txn)
    ~edges:(Table.waits_for_edges table)
    ~depth:(fun txn -> Table.wait_depth table ~txn)
    ~waiters:(Table.waiter_count table) ~lu:(Table.resource_lu table)
    ~invariants:(Table.check_invariants table) txns

let oracle_view table txns =
  view
    ~pp:(fun formatter () -> Oracle.pp formatter table)
    ~stats:(Oracle.stats table) ~entry_count:(Oracle.entry_count table)
    ~peak:(Oracle.peak_entry_count table) ~resources:(Oracle.resources table)
    ~holders:(fun resource -> Oracle.holders table ~resource)
    ~held:(fun txn resource -> Oracle.held table ~txn ~resource)
    ~locks_of:(fun txn ->
      List.map
        (fun (resource, mode, duration) ->
          (resource, mode, duration = Oracle.Long))
        (Oracle.locks_of table ~txn))
    ~waiting_of:(fun txn -> Oracle.waiting_of table ~txn)
    ~edges:(Oracle.waits_for_edges table)
    ~depth:(fun txn -> Oracle.wait_depth table ~txn)
    ~waiters:(Oracle.waiter_count table) ~lu:(Oracle.resource_lu table)
    ~invariants:(Oracle.check_invariants table) txns

let table_step table drain txns op =
  let grants granted =
    List.map
      (fun { Table.g_txn; g_resource; g_mode } -> (g_txn, g_resource, g_mode))
      granted
  in
  let outcome, granted =
    match op with
    | Set_meta k ->
      Table.set_meta table (resolver k);
      (None, [])
    | Table_op (Request { txn; resource; mode; duration; wait }) -> (
      match Table.request table ~txn ~wait ~duration ~resource mode with
      | Table.Granted -> (None, [])
      | Table.Waiting blockers -> (Some blockers, []))
    | Table_op (Release (txn, resource)) ->
      (None, grants (Table.release table ~txn ~resource))
    | Table_op (Downgrade (txn, resource, mode)) ->
      (None, grants (Table.downgrade table ~txn ~resource mode))
    | Table_op (Cancel_wait txn) ->
      (None, grants (Table.cancel_wait table ~txn))
    | Table_op (Release_short txn) ->
      (None, grants (Table.release_short table ~txn))
    | Table_op (Release_all txn) ->
      (None, grants (Table.release_all table ~txn))
  in
  { outcome; grants = granted; events = drain (); view = table_view table txns }

let oracle_step table drain txns op =
  let grants granted =
    List.map
      (fun { Oracle.g_txn; g_resource; g_mode } -> (g_txn, g_resource, g_mode))
      granted
  in
  let outcome, granted =
    match op with
    | Set_meta k ->
      Oracle.set_meta table (resolver k);
      (None, [])
    | Table_op (Request { txn; resource; mode; duration; wait }) -> (
      let duration =
        match duration with
        | Table.Long -> Oracle.Long
        | Table.Short -> Oracle.Short
      in
      match Oracle.request table ~txn ~wait ~duration ~resource mode with
      | Oracle.Granted -> (None, [])
      | Oracle.Waiting blockers -> (Some blockers, []))
    | Table_op (Release (txn, resource)) ->
      (None, grants (Oracle.release table ~txn ~resource))
    | Table_op (Downgrade (txn, resource, mode)) ->
      (None, grants (Oracle.downgrade table ~txn ~resource mode))
    | Table_op (Cancel_wait txn) ->
      (None, grants (Oracle.cancel_wait table ~txn))
    | Table_op (Release_short txn) ->
      (None, grants (Oracle.release_short table ~txn))
    | Table_op (Release_all txn) ->
      (None, grants (Oracle.release_all table ~txn))
  in
  { outcome; grants = granted; events = drain ();
    view = oracle_view table txns }

let prop_oracle_lockstep =
  QCheck.Test.make ~count:400
    ~name:"lockstep with the string-set table: outcomes, grants, events, state"
    (QCheck.make
       ~print:(fun (txns, ops) ->
         Printf.sprintf "%d txn(s): %s" txns
           (String.concat "; " (List.map oracle_op_to_string ops)))
       QCheck.Gen.(
         int_range 1 6 >>= fun txns ->
         map (fun ops -> (txns, ops))
           (list_size (int_range 1 60) (gen_oracle_op txns))))
    (fun (txns, ops) ->
      let sink, drain = recorder ()
      and oracle_sink, oracle_drain = recorder () in
      let table = Table.create ~obs:sink ~meta:(resolver 0) () in
      let oracle = Oracle.create ~obs:oracle_sink ~meta:(resolver 0) () in
      List.for_all
        (fun op ->
          let live = table_step table drain txns op
          and expected = oracle_step oracle oracle_drain txns op in
          live = expected
          || QCheck.Test.fail_reportf
               "diverged at %s@.live:@.%s@.expected:@.%s"
               (oracle_op_to_string op)
               (String.concat "\n" (live.events @ live.view))
               (String.concat "\n" (expected.events @ expected.view)))
        ops)

(* The tag is resolved once per entry, at its first traced event; a new
   resolver takes over at the next event, held locks included. *)
let test_table_tag_resolved_once () =
  let calls = ref 0 in
  let tagging kind _resource =
    incr calls;
    Some { Obs.Event.lu_kind = kind; lu_depth = 1 }
  in
  let released = ref [] in
  let sink =
    Obs.Sink.create
      [ (fun event ->
          match event.Obs.Event.kind with
          | Obs.Event.Lock_released { txn; lu; _ } ->
            let kind = Option.map (fun lu -> lu.Obs.Event.lu_kind) lu in
            released := (txn, kind) :: !released
          | _ -> ()) ]
  in
  let table = Table.create ~obs:sink ~meta:(tagging "old") () in
  let granted outcome = check_bool "granted" true (outcome = Table.Granted) in
  granted (Table.request table ~txn:1 ~resource:"r" Mode.S);
  granted (Table.request table ~txn:2 ~resource:"r" Mode.S);
  check_bool "T3 waits" false
    (Table.request table ~txn:3 ~resource:"r" Mode.X = Table.Granted);
  check_int "one resolution for every event on the entry" 1 !calls;
  Table.set_meta table (tagging "new");
  ignore (Table.release table ~txn:1 ~resource:"r" : Table.grant list);
  ignore (Table.release_all table ~txn:2 : Table.grant list);
  check_int "the new resolver asked once" 2 !calls;
  Alcotest.(check (list (pair int (option string))))
    "held locks report the new tag"
    [ (1, Some "new"); (2, Some "new") ]
    (List.rev !released)

(* A resource without a tag yet (a node locked by name before it exists) is
   resolved again at its next event, and keeps the tag once it has one. *)
let test_table_untagged_resource_asks_again () =
  let exists = ref false and calls = ref 0 in
  let meta _resource =
    incr calls;
    if !exists then Some { Obs.Event.lu_kind = "BLU"; lu_depth = 4 } else None
  in
  let tags = ref [] in
  let sink =
    Obs.Sink.create
      [ (fun event -> tags := Obs.Event.lu_of event.Obs.Event.kind :: !tags) ]
  in
  let table = Table.create ~obs:sink ~meta () in
  ignore (Table.request table ~txn:1 ~resource:"rel/k9" Mode.X : Table.outcome);
  exists := true;
  ignore (Table.request table ~txn:1 ~resource:"rel/k9" Mode.X : Table.outcome);
  ignore (Table.release_all table ~txn:1 : Table.grant list);
  Alcotest.(check (list (option string)))
    "untagged until the node exists"
    [ None; None; Some "BLU"; Some "BLU"; Some "BLU" ]
    (List.rev_map (Option.map (fun lu -> lu.Obs.Event.lu_kind)) !tags);
  check_int "asked until resolved, then kept" 3 !calls

(* ------------------------------------------------------------ wait_depth *)

(* [Table.wait_depth] before memoisation: every path, an edge back into the
   path counting 1. *)
let wait_depth_oracle edges txn =
  let successors blocked =
    List.filter_map
      (fun (waiter, blocker) -> if waiter = blocked then Some blocker else None)
      edges
  in
  let rec depth visited t =
    if List.mem t visited then 0
    else
      List.fold_left
        (fun best next -> max best (1 + depth (t :: visited) next))
        0 (successors t)
  in
  depth [] txn

(* Random tables over up to 8 transactions that may wait on several
   resources at once, so cycles are common. *)
let prop_wait_depth_matches_oracle =
  let request =
    QCheck.Gen.(
      triple (int_range 1 8) (oneofl [ "a"; "b"; "c"; "d"; "e" ])
        (oneofl [ Mode.IS; Mode.IX; Mode.S; Mode.SIX; Mode.X ]))
  in
  QCheck.Test.make ~count:300
    ~name:"memoised wait_depth equals every-path search"
    (QCheck.make
       ~print:(fun requests ->
         String.concat "; "
           (List.map
              (fun (txn, resource, mode) ->
                Printf.sprintf "T%d %s %s" txn resource (Mode.to_string mode))
              requests))
       QCheck.Gen.(list_size (int_range 1 30) request))
    (fun requests ->
      let table = Table.create () in
      List.iter
        (fun (txn, resource, mode) ->
          ignore (Table.request table ~txn ~resource mode : Table.outcome))
        requests;
      let edges = Table.waits_for_edges table in
      List.for_all
        (fun txn -> Table.wait_depth table ~txn = wait_depth_oracle edges txn)
        (List.init 8 succ))

(* Two transactions per layer hold the layer's resource in S and X-wait on
   the next layer's; the pair below 16 waiting layers only holds. The
   every-path search takes seconds on this graph; the memoised one searches
   each transaction once. *)
let test_table_wait_depth_layered () =
  let table = Table.create () in
  let layers = 16 in
  let pair layer = [ (2 * layer) - 1; 2 * layer ] in
  for layer = 1 to layers + 1 do
    List.iter
      (fun txn ->
        check_bool "S on own layer" true
          (Table.request table ~txn ~resource:(string_of_int layer) Mode.S
           = Table.Granted))
      (pair layer)
  done;
  for layer = 1 to layers do
    List.iter
      (fun txn ->
        check_bool "X on the next layer waits" false
          (Table.request table ~txn ~resource:(string_of_int (layer + 1)) Mode.X
           = Table.Granted))
      (pair layer)
  done;
  check_int "80 edges" 80 (List.length (Table.waits_for_edges table));
  let started = Unix.gettimeofday () in
  let depth = Table.wait_depth table ~txn:1 in
  let elapsed = Unix.gettimeofday () -. started in
  check_int "longest chain" 31 depth;
  check_bool
    (Printf.sprintf "took %.4f s, well under 0.1 s" elapsed)
    true (elapsed < 0.1)

let () =
  Alcotest.run "lockmgr"
    [ ("lock_mode",
       [ Alcotest.test_case "compatibility matrix" `Quick
           test_mode_compat_matrix;
         Alcotest.test_case "sup cases" `Quick test_mode_sup_cases;
         Alcotest.test_case "leq" `Quick test_mode_leq;
         Alcotest.test_case "intention_for" `Quick test_mode_intention_for;
         Alcotest.test_case "strings" `Quick test_mode_strings ]);
      ("lock_mode_properties", qcheck_cases);
      ( "lock_table_properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wait_flag_lockstep; prop_wait_depth_matches_oracle;
            prop_oracle_lockstep ] );
      ("lock_table",
       [ Alcotest.test_case "grant and conflict" `Quick
           test_table_grant_and_conflict;
         Alcotest.test_case "release grants waiter" `Quick
           test_table_release_grants_waiter;
         Alcotest.test_case "fifo fairness" `Quick test_table_fifo_fairness;
         Alcotest.test_case "conversion" `Quick test_table_conversion;
         Alcotest.test_case "conversion jumps queue" `Quick
           test_table_conversion_blocks_then_jumps_queue;
         Alcotest.test_case "covered request" `Quick
           test_table_covered_request_noop;
         Alcotest.test_case "intention sharing" `Quick
           test_table_intention_sharing;
         Alcotest.test_case "SIX" `Quick test_table_six;
         Alcotest.test_case "release_all" `Quick test_table_release_all;
         Alcotest.test_case "release_short keeps long" `Quick
           test_table_release_short_keeps_long;
         Alcotest.test_case "non-waiting long sticks" `Quick
           test_table_nonwaiting_long_sticks;
         Alcotest.test_case "cancel_wait" `Quick test_table_cancel_wait;
         Alcotest.test_case "downgrade" `Quick test_table_downgrade;
         Alcotest.test_case "stats" `Quick test_table_stats;
         Alcotest.test_case "peak entries" `Quick test_table_peak_entries;
         Alcotest.test_case "late cancel_wait" `Quick
           test_table_late_cancel_wait;
         Alcotest.test_case "wait_depth" `Quick test_table_wait_depth;
         Alcotest.test_case "wait_depth on a layered DAG" `Quick
           test_table_wait_depth_layered;
         Alcotest.test_case "check_invariants clean" `Quick
           test_table_check_invariants_clean;
         Alcotest.test_case "waits_for edges" `Quick
           test_table_waits_for_edges;
         Alcotest.test_case "untraced does no event work" `Quick
           test_table_untraced_does_no_event_work;
         Alcotest.test_case "tag resolved once per entry" `Quick
           test_table_tag_resolved_once;
         Alcotest.test_case "untagged resource asks again" `Quick
           test_table_untagged_resource_asks_again ]);
      ("deadlock",
       [ Alcotest.test_case "simple cycle" `Quick test_deadlock_simple_cycle;
         Alcotest.test_case "no cycle" `Quick test_deadlock_no_cycle;
         Alcotest.test_case "long cycle" `Quick test_deadlock_long_cycle;
         Alcotest.test_case "via table" `Quick test_deadlock_via_table;
         Alcotest.test_case "overlapping cycles terminate" `Quick
           test_deadlock_overlapping_cycles_terminate ]);
      ("policy",
       [ Alcotest.test_case "choose_victim" `Quick test_policy_choose_victim;
         Alcotest.test_case "backoff" `Quick test_policy_backoff;
         Alcotest.test_case "backoff saturates" `Quick
           test_policy_backoff_saturates;
         Alcotest.test_case "strings" `Quick test_policy_strings ]) ]
