(* Real-concurrency tests: OCaml 5 domains blocking on the protocol through
   Txn.Blocking. Outcomes are nondeterministic in scheduling but the
   invariants are not: mutual exclusion under X, progress despite deadlocks,
   and a drained lock table at the end. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph
module Node_id = Colock.Node_id

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One read-only graph for every test; each test gets its own lock table. *)
let graph = Graph.build (Workload.Figure1.database ())

let make_blocking () =
  let table = Table.create () in
  let protocol = Colock.Protocol.create graph table in
  (table, Txn.Blocking.create protocol)

let node steps = Graph.node_exn graph (Option.get (Node_id.of_steps steps))
let robot_r1 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]
let robot_r2 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ]
let effector_e1 = node [ "db1"; "seg2"; "effectors"; "e1" ]
let effector_e3 = node [ "db1"; "seg2"; "effectors"; "e3" ]

(* A broken resolver leaves a domain parked forever, which would hang the
   suite instead of failing it: every test runs under a watchdog that ends
   the run, naming the test, once it has taken this long. *)
let watchdog_seconds = 30.0

(* Alcotest sends each test's output to a file, so the watchdog reports on a
   copy of stderr taken before the run. *)
let console = Unix.out_channel_of_descr (Unix.dup Unix.stderr)

let case name test =
  let guarded () =
    let finished = Atomic.make false in
    let deadline = Unix.gettimeofday () +. watchdog_seconds in
    let watchdog =
      Domain.spawn (fun () ->
          while not (Atomic.get finished) do
            if Unix.gettimeofday () > deadline then begin
              Printf.fprintf console
                "test_parallel: %S still running after %.0f s\n%!" name
                watchdog_seconds;
              Unix._exit 1
            end;
            Unix.sleepf 0.005
          done)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Domain.join watchdog)
      test
  in
  Alcotest.test_case name `Quick guarded

let test_mutual_exclusion_under_x () =
  let table, blocking = make_blocking () in
  let domains = 4 and increments = 50 in
  (* the X lock on robot r1 is the only thing protecting this counter *)
  let counter = ref 0 in
  let worker domain_index () =
    for i = 0 to increments - 1 do
      let txn = (domain_index * increments) + i + 1 in
      Txn.Blocking.run_txn blocking ~txn
        ~locks:[ (robot_r1, Mode.X) ]
        (fun () -> incr counter)
    done
  in
  let spawned =
    List.init domains (fun index -> Domain.spawn (worker index))
  in
  List.iter Domain.join spawned;
  check_int "no lost update" (domains * increments) !counter;
  check_int "table drained" 0 (Table.entry_count table)

let test_deadlock_recovery_across_domains () =
  let table, blocking = make_blocking () in
  (* opposite acquisition orders force deadlocks; run_txn retries victims *)
  let completed = Atomic.make 0 in
  let worker (first, second) base () =
    for i = 0 to 19 do
      let txn = base + i + 1 in
      Txn.Blocking.run_txn blocking ~txn
        ~locks:[ (first, Mode.X); (second, Mode.X) ]
        (fun () -> Atomic.incr completed)
    done
  in
  let a = Domain.spawn (worker (robot_r1, robot_r2) 0) in
  let b = Domain.spawn (worker (robot_r2, robot_r1) 1000) in
  Domain.join a;
  Domain.join b;
  check_int "all transactions completed" 40 (Atomic.get completed);
  check_int "table drained" 0 (Table.entry_count table)

let test_shared_readers_make_progress () =
  let table, blocking = make_blocking () in
  let reads = Atomic.make 0 in
  let worker base () =
    for i = 0 to 29 do
      let txn = base + i + 1 in
      Txn.Blocking.run_txn blocking ~txn
        ~locks:[ (robot_r1, Mode.S); (robot_r2, Mode.S) ]
        (fun () -> Atomic.incr reads)
    done
  in
  let spawned = List.init 3 (fun index -> Domain.spawn (worker (index * 100))) in
  List.iter Domain.join spawned;
  check_int "all reads done" 90 (Atomic.get reads);
  check_int "table drained" 0 (Table.entry_count table)

let test_mixed_readers_and_writers () =
  let table, blocking = make_blocking () in
  let log = ref [] in
  (* the X lock serializes appends; S transactions never appear inside a
     writer's critical section because they would need the same lock *)
  let writer base () =
    for i = 0 to 14 do
      let txn = base + i + 1 in
      Txn.Blocking.run_txn blocking ~txn
        ~locks:[ (robot_r1, Mode.X) ]
        (fun () -> log := `Write txn :: !log)
    done
  in
  let reader base () =
    for i = 0 to 14 do
      let txn = base + i + 1 in
      Txn.Blocking.run_txn blocking ~txn
        ~locks:[ (robot_r1, Mode.S) ]
        (fun () -> ignore (List.length !log))
    done
  in
  let spawned =
    [ Domain.spawn (writer 0); Domain.spawn (writer 100);
      Domain.spawn (reader 200); Domain.spawn (reader 300) ]
  in
  List.iter Domain.join spawned;
  check_int "30 writes recorded" 30 (List.length !log);
  check_bool "no duplicate writes" true
    (List.length (List.sort_uniq compare !log) = 30);
  check_int "table drained" 0 (Table.entry_count table)

(* Two domains each hold one X lock, meet, then request each other's. The
   nodes' plans share only intention locks, so the cycle is certain and
   single: the shared resolver counts it once and sacrifices the larger id,
   whichever domain blocks second. *)
let test_deadlock_counted_and_youngest_dies () =
  let table, blocking = make_blocking () in
  let met = Atomic.make 0 in
  let worker ~txn ~own ~other () =
    (match Txn.Blocking.acquire blocking ~txn own Mode.X with
     | `Granted -> ()
     | `Deadlock_victim -> Alcotest.fail "victim before any cycle");
    Atomic.incr met;
    while Atomic.get met < 2 do
      Domain.cpu_relax ()
    done;
    let outcome = Txn.Blocking.acquire blocking ~txn other Mode.X in
    Txn.Blocking.end_of_transaction blocking ~txn;
    outcome
  in
  let first =
    Domain.spawn (worker ~txn:1 ~own:effector_e1 ~other:effector_e3)
  in
  let second =
    Domain.spawn (worker ~txn:2 ~own:effector_e3 ~other:effector_e1)
  in
  let outcomes = (Domain.join first, Domain.join second) in
  check_bool "T1 granted, T2 the victim" true
    (outcomes = (`Granted, `Deadlock_victim));
  let stats = Table.stats table in
  check_int "one deadlock" 1 stats.Lockmgr.Lock_stats.deadlocks;
  check_int "one victim abort" 1 stats.Lockmgr.Lock_stats.victim_aborts;
  check_int "table drained" 0 (Table.entry_count table)

let test_third_party_victim_regression () =
  (* Regression: when the deadlock victim is NOT the requester, the resolver
     must not spin holding the mutex waiting for the cycle to vanish (the
     parked victim can only clean up after re-acquiring the mutex). Three
     writers (one in reverse order) plus readers reproduce the original
     hang reliably at a few hundred iterations. *)
  let table, blocking = make_blocking () in
  let c_objects = node [ "db1"; "seg1"; "cells"; "c1"; "c_objects" ] in
  let writes = Atomic.make 0 in
  let writer ~base ~first ~second () =
    for i = 0 to 199 do
      Txn.Blocking.run_txn blocking ~txn:(base + i)
        ~locks:[ (first, Mode.X); (second, Mode.X) ]
        (fun () -> Atomic.incr writes)
    done
  in
  let reader ~base () =
    for i = 0 to 199 do
      Txn.Blocking.run_txn blocking ~txn:(base + i)
        ~locks:[ (c_objects, Mode.S) ]
        (fun () -> ())
    done
  in
  let domains =
    [ Domain.spawn (writer ~base:10_000 ~first:robot_r1 ~second:robot_r2);
      Domain.spawn (writer ~base:20_000 ~first:robot_r1 ~second:robot_r2);
      Domain.spawn (writer ~base:30_000 ~first:robot_r2 ~second:robot_r1);
      Domain.spawn (reader ~base:40_000);
      Domain.spawn (reader ~base:50_000) ]
  in
  List.iter Domain.join domains;
  check_int "600 writes" 600 (Atomic.get writes);
  check_int "table drained" 0 (Table.entry_count table)

let () =
  Alcotest.run "parallel"
    [ ("domains",
       [ case "mutual exclusion under X" test_mutual_exclusion_under_x;
         case "deadlock recovery" test_deadlock_recovery_across_domains;
         case "shared readers" test_shared_readers_make_progress;
         case "mixed readers and writers" test_mixed_readers_and_writers;
         case "deadlock counted, youngest dies"
           test_deadlock_counted_and_youngest_dies;
         case "third-party victim regression"
           test_third_party_victim_regression ]) ]
