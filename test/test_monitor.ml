(* Tests for the live-operations layer: gauges, sliding windows, registry
   reset, the monitor itself (cross-checked against the lock table and
   transaction manager it watches) and the SLO engine. *)

module Event = Obs.Event
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let ev time kind = { Event.time; kind }

let blu = Some { Event.lu_kind = "BLU"; lu_depth = 5 }

let granted ?(lu = None) txn resource =
  Event.Lock_granted
    { txn; resource; mode = "X"; immediate = true; lu; holders = [] }

let waited ?(lu = None) txn resource =
  Event.Lock_waited
    { txn; resource; mode = "X"; blockers = [ 9 ]; lu; holders = [] }

(* ----------------------------------------------------------------- Window *)

let test_window_expiry_boundary () =
  let window = Obs.Window.create ~span:100.0 () in
  Obs.Window.observe window ~now:0.0 10.0;
  Obs.Window.observe window ~now:1.0 20.0;
  check_int "both live" 2 (Obs.Window.count window);
  (* the window is the half-open interval (now - span, now]: a sample
     stamped exactly [span] ago has aged out, one stamped an instant later
     has not *)
  Obs.Window.advance window ~now:100.0;
  check_int "sample at now - span expires" 1 (Obs.Window.count window);
  check_float "survivor is the later sample" 20.0 (Obs.Window.sum window);
  Obs.Window.advance window ~now:101.0;
  check_int "empty once everything aged" 0 (Obs.Window.count window);
  check_float "rate of empty window" 0.0 (Obs.Window.rate window)

let test_window_rate_and_quantiles () =
  let window = Obs.Window.create ~span:200.0 () in
  List.iter
    (fun (now, value) -> Obs.Window.observe window ~now value)
    [ (10.0, 10.0); (20.0, 20.0); (30.0, 30.0); (40.0, 40.0) ];
  check_float "count / span" (4.0 /. 200.0) (Obs.Window.rate window);
  check_float "p50 interpolates" 25.0 (Obs.Window.quantile window 0.50);
  check_float "p0 is the min" 10.0 (Obs.Window.quantile window 0.0);
  check_float "p100 is the max" 40.0 (Obs.Window.quantile window 1.0);
  check_float "max" 40.0 (Obs.Window.max_value window);
  check_float "mean" 25.0 (Obs.Window.mean window)

let test_window_limit_sheds () =
  let window = Obs.Window.create ~limit:3 ~span:1000.0 () in
  for step = 1 to 5 do
    Obs.Window.observe window ~now:(float_of_int step) 1.0
  done;
  check_int "capped at limit" 3 (Obs.Window.count window);
  check_int "shed counter is visible" 2 (Obs.Window.shed window)

(* --------------------------------------------------------------- Registry *)

let test_registry_reset_isolation () =
  let registry = Obs.Registry.create () in
  Obs.Registry.incr registry "events.grant";
  Obs.Registry.set_gauge registry "level" 7.0;
  Obs.Registry.observe registry "wait" 12.0;
  let window = Obs.Registry.window ~span:100.0 registry "w.rate" in
  Obs.Window.mark window ~now:5.0;
  let other = Obs.Registry.create () in
  Obs.Registry.incr other "events.grant" ~by:9;
  Obs.Registry.reset registry;
  check_int "counter zeroed" 0 (Obs.Registry.counter registry "events.grant");
  check_float "gauge zeroed" 0.0 (Obs.Registry.gauge_value registry "level");
  check_int "window cleared" 0 (Obs.Window.count window);
  (match Obs.Registry.find_histogram registry "wait" with
   | Some histogram ->
     check_int "histogram cleared" 0 (Obs.Histogram.count histogram)
   | None -> Alcotest.fail "histogram key should survive reset");
  check_bool "keys survive for stable exports" true
    (List.mem_assoc "events.grant" (Obs.Registry.counters registry));
  check_int "other registries untouched" 9
    (Obs.Registry.counter other "events.grant")

(* Registry gauges are plain levels: a set replaces the value. *)
let test_registry_gauges () =
  let registry = Obs.Registry.create () in
  let check_gauges = Alcotest.(check (list (pair string (float 1e-9)))) in
  check_float "never set" 0.0 (Obs.Registry.gauge_value registry "level");
  Obs.Registry.set_gauge registry "level" 3.0;
  Obs.Registry.set_gauge registry "level" 5.0;
  Obs.Registry.set_gauge registry "evicted" 1.0;
  check_float "a set replaces" 5.0 (Obs.Registry.gauge_value registry "level");
  check_gauges "sorted by name" [ ("evicted", 1.0); ("level", 5.0) ]
    (Obs.Registry.gauges registry)

(* ---------------------------------------------------------------- Monitor *)

let test_monitor_gauges_and_windows () =
  let monitor = Obs.Monitor.create ~span:100.0 () in
  let handle event = Obs.Monitor.handle monitor event in
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 0.0 (Event.Txn_begin { txn = 2 }));
  handle (ev 1.0 (granted ~lu:blu 1 "cells/c1"));
  handle (ev 2.0 (waited ~lu:blu 2 "cells/c1"));
  let registry = Obs.Monitor.registry monitor in
  let gauge name = Obs.Registry.gauge_value registry name in
  check_float "two active" 2.0 (gauge "active_txns");
  check_float "one entry" 1.0 (gauge "lock_entries");
  check_float "one waiter" 1.0 (gauge "wait_queue_depth");
  handle (ev 42.0 (Event.Lock_granted
                     { txn = 2; resource = "cells/c1"; mode = "X";
                       immediate = false; lu = blu; holders = [] }));
  check_float "wait resolved" 0.0 (gauge "wait_queue_depth");
  (match Obs.Registry.find_window registry "window.lock_wait" with
   | Some window ->
     check_int "one completed wait" 1 (Obs.Window.count window);
     check_float "waited 40 ticks" 40.0 (Obs.Window.quantile window 0.99)
   | None -> Alcotest.fail "wait window missing");
  (match Obs.Registry.find_window registry "window.lock_wait{lu=\"BLU\"}" with
   | Some window ->
     check_int "wait attributed to its LU kind" 1 (Obs.Window.count window)
   | None -> Alcotest.fail "labelled wait window missing");
  (match Obs.Monitor.hot_resources monitor with
   | (resource, stat) :: _ ->
     check_string "hot resource" "cells/c1" resource;
     check_float "blocked time attributed" 40.0 stat.Obs.Monitor.r_blocked
   | [] -> Alcotest.fail "expected a hot resource");
  handle (ev 50.0 (Event.Txn_commit { txn = 2 }));
  check_float "commit retires the txn" 1.0 (gauge "active_txns");
  check_int "commit counted" 1 (Obs.Monitor.commits monitor)

let test_monitor_abort_taxonomy () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 1.0 (Event.Victim_aborted { txn = 1; restarts = 1 }));
  handle (ev 1.0 (Event.Txn_abort { txn = 1; reason = "deadlock_victim" }));
  handle (ev 2.0 (Event.Txn_abort { txn = 2; reason = "user" }));
  Alcotest.(check (list (pair string int)))
    "victim pairs are not double counted"
    [ ("deadlock", 1); ("user", 1) ]
    (Obs.Monitor.aborts monitor)

let test_monitor_run_meta_resets () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  handle (ev 0.0 (Event.Run_meta { label = "first" }));
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 1.0 (granted 1 "r1"));
  handle (ev 9.0 (Event.Txn_commit { txn = 1 }));
  check_int "first run committed" 1 (Obs.Monitor.commits monitor);
  handle (ev 0.0 (Event.Run_meta { label = "second" }));
  check_string "relabelled" "second"
    (Option.value ~default:"?" (Obs.Monitor.label monitor));
  check_int "commits reset" 0 (Obs.Monitor.commits monitor);
  check_float "gauges reset" 0.0
    (Obs.Registry.gauge_value (Obs.Monitor.registry monitor) "active_txns");
  check_int "hot resources reset" 0
    (List.length (Obs.Monitor.hot_resources monitor))

(* Hot-resource tracking is sketch-bounded: at most hot_k resources are
   tallied, and an evicted resource's tally goes with it. *)
let test_monitor_hot_keys_are_bounded () =
  let monitor = Obs.Monitor.create ~hot_k:2 () in
  let handle event = Obs.Monitor.handle monitor event in
  let holder txn mode = { Event.h_txn = txn; h_mode = mode; h_lu = None } in
  let waited ~holders txn resource =
    Event.Lock_waited { txn; resource; mode = "X"; blockers = []; lu = None;
                        holders }
  in
  let grant txn resource =
    Event.Lock_granted
      { txn; resource; mode = "X"; immediate = false; lu = None; holders = [] }
  in
  (* r1 blocks 30 ticks, r2 10 *)
  handle (ev 0.0 (waited ~holders:[ holder 7 "X"; holder 8 "S" ] 1 "r1"));
  handle (ev 5.0 (waited ~holders:[ holder 7 "X" ] 2 "r2"));
  handle (ev 15.0 (grant 2 "r2"));
  handle (ev 30.0 (grant 1 "r1"));
  Alcotest.(check (list (pair string (float 1e-9))))
    "blocked time per resource"
    [ ("r1", 30.0); ("r2", 10.0) ]
    (List.map
       (fun (resource, stat) -> (resource, stat.Obs.Monitor.r_blocked))
       (Obs.Monitor.hot_resources monitor));
  (* a third resource overflows k=2: the smallest (r2) is evicted *)
  handle (ev 40.0 (waited ~holders:[ holder 9 "X" ] 3 "r3"));
  handle (ev 80.0 (grant 3 "r3"));
  let resources =
    List.map (fun (resource, _) -> resource)
      (Obs.Monitor.hot_resources monitor)
  in
  Alcotest.(check (list string)) "bounded at hot_k" [ "r3"; "r1" ] resources;
  handle (ev 0.0 (Event.Run_meta { label = "next" }));
  check_int "reset clears hot resources" 0
    (List.length (Obs.Monitor.hot_resources monitor))

(* The monitor only ever sees the event stream; the lock table and the
   transaction manager own the ground truth. Drive a real blocked-writer
   scenario through the full stack and insist the gauges agree with the
   structures they summarize. *)
let test_monitor_agrees_with_table_and_manager () =
  let monitor = Obs.Monitor.create () in
  let sink = Obs.Sink.create [] in
  Obs.Sink.attach sink (Obs.Monitor.handle monitor);
  let db = Workload.Figure1.database () in
  let graph = Graph.build db in
  let table = Table.create ~obs:sink ~meta:(Graph.lu_resolver graph) () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  let manager = Txn.Txn_manager.create protocol in
  let registry = Obs.Monitor.registry monitor in
  let gauge name = int_of_float (Obs.Registry.gauge_value registry name) in
  let node steps = Graph.node_exn graph (Option.get (Node_id.of_steps steps)) in
  let cell = node [ "db1"; "seg1"; "cells"; "c1" ] in
  let robot = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  let t1 = Txn.Txn_manager.begin_txn manager in
  let t2 = Txn.Txn_manager.begin_txn manager in
  (match Txn.Txn_manager.acquire manager t1 cell Mode.X with
   | Txn.Txn_manager.Granted -> ()
   | _ -> Alcotest.fail "t1 should get the cell");
  (match Txn.Txn_manager.acquire manager t2 robot Mode.X with
   | Txn.Txn_manager.Waiting _ -> ()
   | _ -> Alcotest.fail "t2 should block behind t1");
  check_int "active gauge = manager's count"
    (Txn.Txn_manager.active_count manager)
    (gauge "active_txns");
  check_int "entries gauge = table's entry count" (Table.entry_count table)
    (gauge "lock_entries");
  check_int "queue gauge = table's waiter count" (Table.waiter_count table)
    (gauge "wait_queue_depth");
  check_int "exactly one queued waiter" 1 (Table.waiter_count table);
  let (_ : Table.grant list) = Txn.Txn_manager.commit manager t1 in
  check_int "wait drained in both views" (Table.waiter_count table)
    (gauge "wait_queue_depth");
  check_int "no queued waiters left" 0 (Table.waiter_count table)

(* The run's clock starts at its first event, not at 0, and never runs
   backwards: throughput is commits over that elapsed time, and the next
   run's clock starts at the next run's first event. *)
let test_monitor_clock_and_throughput () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  check_float "no event, no elapsed time" 0.0 (Obs.Monitor.elapsed monitor);
  check_float "no event, no throughput" 0.0 (Obs.Monitor.throughput monitor);
  handle (ev 100.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 100.0 (Event.Txn_begin { txn = 2 }));
  check_float "one instant has no elapsed time" 0.0
    (Obs.Monitor.elapsed monitor);
  check_float "nor a throughput" 0.0 (Obs.Monitor.throughput monitor);
  handle (ev 150.0 (Event.Txn_commit { txn = 1 }));
  handle (ev 140.0 (Event.Txn_commit { txn = 2 }));
  check_float "now keeps the latest stamp" 150.0 (Obs.Monitor.now monitor);
  check_float "elapsed from the first event" 50.0
    (Obs.Monitor.elapsed monitor);
  check_int "both commits counted" 2 (Obs.Monitor.commits monitor);
  check_float "commits per clock unit" (2.0 /. 50.0)
    (Obs.Monitor.throughput monitor);
  Obs.Monitor.begin_run monitor ~label:"next";
  check_string "begin_run relabels" "next"
    (Option.value ~default:"?" (Obs.Monitor.label monitor));
  check_float "begin_run restarts the clock" 0.0 (Obs.Monitor.now monitor);
  check_int "and the commit count" 0 (Obs.Monitor.commits monitor);
  handle (ev 20.0 (Event.Txn_begin { txn = 3 }));
  handle (ev 30.0 (Event.Txn_commit { txn = 3 }));
  check_float "the next run's clock starts at its own first event" 10.0
    (Obs.Monitor.elapsed monitor);
  check_float "its throughput reads its own commits" 0.1
    (Obs.Monitor.throughput monitor)

let window_count monitor name =
  match Obs.Registry.find_window (Obs.Monitor.registry monitor) name with
  | Some window -> Obs.Window.count window
  | None -> Alcotest.failf "window %s missing" name

(* A wait that ends in its waiter's abort was still contention: it is
   observed in the wait windows and charged to its resource, and the abort
   is counted once although the victim also reports a Txn_abort. *)
let test_monitor_aborted_waits_are_charged () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  let gauge name =
    Obs.Registry.gauge_value (Obs.Monitor.registry monitor) name
  in
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 0.0 (Event.Txn_begin { txn = 2 }));
  handle (ev 1.0 (granted 1 "r1"));
  handle (ev 5.0 (waited ~lu:blu 2 "r1"));
  check_float "one waiter" 1.0 (gauge "wait_queue_depth");
  handle
    (ev 30.0
       (Event.Timeout_abort
          { txn = 2; resource = "r1"; waited = 25; lu = blu }));
  handle (ev 30.0 (Event.Txn_abort { txn = 2; reason = "timeout_victim" }));
  check_float "the abort closed the wait" 0.0 (gauge "wait_queue_depth");
  check_float "and retired the waiter" 1.0 (gauge "active_txns");
  check_int "the wait is observed" 1 (window_count monitor "window.lock_wait");
  check_int "under its LU kind too" 1
    (window_count monitor "window.lock_wait{lu=\"BLU\"}");
  (match Obs.Registry.find_window (Obs.Monitor.registry monitor)
           "window.lock_wait" with
   | Some window ->
     check_float "for the time it was blocked" 25.0
       (Obs.Window.max_value window)
   | None -> Alcotest.fail "wait window missing");
  (match Obs.Monitor.hot_resources monitor with
   | [ (resource, stat) ] ->
     check_string "charged to its resource" "r1" resource;
     check_float "blocked time" 25.0 stat.Obs.Monitor.r_blocked;
     check_int "one wait" 1 stat.Obs.Monitor.r_waits
   | _ -> Alcotest.fail "expected one hot resource");
  Alcotest.(check (list (pair string int)))
    "counted once" [ ("timeout", 1) ]
    (Obs.Monitor.aborts monitor);
  check_int "one abort in the window" 1 (window_count monitor "window.aborts")

(* Every window ages with the stream's clock, the per-LU ones created on
   first use included: a sample stamped [span] before the latest event has
   left the window. *)
let test_monitor_windows_age_with_the_stream () =
  let monitor = Obs.Monitor.create ~span:100.0 () in
  let handle event = Obs.Monitor.handle monitor event in
  let counts () =
    List.map (window_count monitor)
      [ "window.grants"; "window.lock_wait"; "window.lock_wait{lu=\"BLU\"}";
        "window.commits" ]
  in
  let check_counts = Alcotest.(check (list int)) in
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 0.0 (Event.Txn_begin { txn = 2 }));
  handle (ev 0.0 (granted ~lu:blu 1 "r1"));
  handle (ev 10.0 (waited ~lu:blu 2 "r1"));
  handle (ev 30.0 (granted ~lu:blu 2 "r1"));
  handle (ev 40.0 (Event.Txn_commit { txn = 1 }));
  check_counts "grants, waits, BLU waits, commits" [ 2; 1; 1; 1 ] (counts ());
  handle (ev 129.0 (Event.Sim_step { txn = 2; step = 0 }));
  check_counts "the first grant aged out" [ 1; 1; 1; 1 ] (counts ());
  handle (ev 140.0 (Event.Sim_step { txn = 2; step = 1 }));
  check_counts "everything aged out" [ 0; 0; 0; 0 ] (counts ());
  (match Obs.Registry.find_window (Obs.Monitor.registry monitor)
           "window.grants" with
   | Some window -> check_float "an empty window has no rate" 0.0
                      (Obs.Window.rate window)
   | None -> Alcotest.fail "grant window missing")

(* The hot-resources panel: waits per resource, the LU tag its waits
   carried, descending blocked time with ties by name, cut at [?top]. *)
let test_monitor_hot_resource_tallies () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  let holu = Some { Event.lu_kind = "HoLU"; lu_depth = 3 } in
  let granted_after_wait txn resource =
    Event.Lock_granted
      { txn; resource; mode = "X"; immediate = false; lu = None;
        holders = [] }
  in
  handle (ev 0.0 (waited ~lu:holu 1 "r_c"));
  handle (ev 0.0 (waited 3 "r_b"));
  handle (ev 0.0 (waited 4 "r_a"));
  handle (ev 10.0 (granted_after_wait 1 "r_c"));
  handle (ev 10.0 (granted_after_wait 3 "r_b"));
  handle (ev 10.0 (granted_after_wait 4 "r_a"));
  handle (ev 10.0 (waited 2 "r_c"));
  handle (ev 20.0 (granted_after_wait 2 "r_c"));
  let row (resource, stat) =
    ( resource,
      ( stat.Obs.Monitor.r_blocked,
        stat.Obs.Monitor.r_waits,
        Option.map (fun lu -> lu.Event.lu_kind) stat.Obs.Monitor.r_lu ) )
  in
  let check_rows =
    Alcotest.(check (list (pair string (triple (float 1e-9) int
                                            (option string)))))
  in
  check_rows "blocked time, waits and LU tag per resource"
    [ ("r_c", (20.0, 2, Some "HoLU")); ("r_a", (10.0, 1, None));
      ("r_b", (10.0, 1, None)) ]
    (List.map row (Obs.Monitor.hot_resources monitor));
  check_rows "cut at top"
    [ ("r_c", (20.0, 2, Some "HoLU")); ("r_a", (10.0, 1, None)) ]
    (List.map row (Obs.Monitor.hot_resources ~top:2 monitor));
  check_int "top 0 is empty" 0
    (List.length (Obs.Monitor.hot_resources ~top:0 monitor))

let test_monitor_create_refuses_empty_sketch () =
  List.iter
    (fun hot_k ->
      Alcotest.check_raises
        (Printf.sprintf "hot_k %d" hot_k)
        (Invalid_argument "Monitor.create: hot_k must be positive")
        (fun () -> ignore (Obs.Monitor.create ~hot_k () : Obs.Monitor.t)))
    [ 0; -1 ]

(* -------------------------------------------------------------------- Slo *)

let slo_of text =
  match Obs.Slo.parse text with
  | Ok slo -> slo
  | Error message -> Alcotest.fail message

let test_slo_parse () =
  let slo =
    slo_of
      "# latency\n\
       p99_wait < 40\n\
       p95_wait{lu=HoLU} <= 25 # labelled\n\
       abort_rate < 0.25\n\
       throughput > 0.05\n"
  in
  check_int "four rules" 4 (List.length (Obs.Slo.rules slo));
  (match Obs.Slo.rules slo with
   | first :: _ -> check_string "normalized text" "p99_wait < 40"
                     first.Obs.Slo.text
   | [] -> Alcotest.fail "rules expected");
  match Obs.Slo.parse "p99_wait < 40\nbogus < 1\np50_wait ? 2" with
  | Ok _ -> Alcotest.fail "parse should fail"
  | Error message ->
    let mentions fragment =
      let rec scan index =
        index + String.length fragment <= String.length message
        && (String.sub message index (String.length fragment) = fragment
            || scan (index + 1))
      in
      scan 0
    in
    check_bool "bad signal line reported" true (mentions "line 2");
    check_bool "bad comparator line reported" true (mentions "line 3")

(* Malformed rules must name their position and the offending token. *)
let test_slo_diagnostics () =
  let error ?file ?line text =
    match Obs.Slo.parse_rule ?file ?line text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" text)
    | Error message -> message
  in
  let contains fragment message =
    let rec scan index =
      index + String.length fragment <= String.length message
      && (String.sub message index (String.length fragment) = fragment
          || scan (index + 1))
    in
    scan 0
  in
  let check_mentions label fragment message =
    check_bool label true (contains fragment message)
  in
  check_mentions "unknown metric names the token" "\"bogus\""
    (error "bogus < 1");
  check_mentions "bad threshold names the token" "threshold \"fast\""
    (error "p99_wait < fast");
  check_mentions "a nan threshold is refused"
    "slo.scn:3: invalid threshold \"nan\""
    (error ~file:"slo.scn" ~line:3 "abort_rate < nan");
  check_mentions "an infinite threshold is refused"
    "slo.scn:4: invalid threshold \"inf\""
    (error ~file:"slo.scn" ~line:4 "p99_wait < inf");
  check_mentions "bad selector names the block" "{lu=}"
    (error "p95_wait{lu=} < 10");
  check_mentions "selector on a rate is rejected" "takes no {lu=...}"
    (error "abort_rate{lu=BLU} < 0.5");
  check_mentions "file:line prefix" "rules.slo:7:"
    (error ~file:"rules.slo" ~line:7 "bogus < 1");
  check_mentions "bare line prefix" "line 7:" (error ~line:7 "bogus < 1");
  match Obs.Slo.parse ~file:"team.slo" "p99_wait < 40\nbogus < 1" with
  | Ok _ -> Alcotest.fail "parse should fail"
  | Error message ->
    check_mentions "aggregate diagnostics carry the file" "team.slo:2:"
      message

let test_slo_watch_emits_breach_and_counts () =
  let slo = slo_of "p99_wait < 10\nabort_rate < 0.9" in
  let monitor = Obs.Monitor.create ~span:100.0 () in
  let sink = Obs.Sink.create [] in
  Obs.Sink.attach sink (Obs.Monitor.handle monitor);
  let watch = Obs.Slo.watch ~sink slo monitor in
  Obs.Sink.attach sink (Obs.Slo.handler watch);
  let breached = ref [] in
  Obs.Sink.attach sink (fun event ->
      match event.Event.kind with
      | Event.Slo_breach { rule; _ } -> breached := rule :: !breached
      | _ -> ());
  Obs.Sink.emit_at sink ~time:0.0 (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit_at sink ~time:5.0 (waited 1 "r1");
  Obs.Sink.emit_at sink ~time:50.0
    (Event.Lock_granted
       { txn = 1; resource = "r1"; mode = "X"; immediate = false; lu = None;
         holders = [] });
  check_int "no evaluation before the boundary" 0
    (Obs.Slo.breach_count watch);
  Obs.Sink.emit_at sink ~time:120.0 (Event.Txn_commit { txn = 1 });
  check_int "one rule breached at the boundary" 1
    (Obs.Slo.breach_count watch);
  Alcotest.(check (list string))
    "breach event carries the rule" [ "p99_wait < 10" ] !breached;
  let total = Obs.Slo.finish watch ~time:130.0 in
  check_int "final evaluation re-checks the tail" 2 total

let test_slo_measure_rates () =
  let monitor = Obs.Monitor.create ~span:100.0 () in
  let handle event = Obs.Monitor.handle monitor event in
  handle (ev 0.0 (Event.Txn_begin { txn = 1 }));
  handle (ev 10.0 (Event.Txn_commit { txn = 1 }));
  handle (ev 11.0 (Event.Txn_abort { txn = 2; reason = "user" }));
  check_float "abort rate is aborts/(aborts+commits)" 0.5
    (Obs.Slo.measure monitor Obs.Slo.Abort_rate);
  check_float "throughput is windowed commits per tick" 0.01
    (Obs.Slo.measure monitor Obs.Slo.Throughput)

let () =
  Alcotest.run "monitor"
    [ ( "window",
        [ Alcotest.test_case "expiry boundary" `Quick
            test_window_expiry_boundary;
          Alcotest.test_case "rate and quantiles" `Quick
            test_window_rate_and_quantiles;
          Alcotest.test_case "limit sheds" `Quick test_window_limit_sheds ] );
      ( "registry",
        [ Alcotest.test_case "reset isolation" `Quick
            test_registry_reset_isolation;
          Alcotest.test_case "gauges set" `Quick test_registry_gauges ] );
      ( "monitor",
        [ Alcotest.test_case "gauges and windows" `Quick
            test_monitor_gauges_and_windows;
          Alcotest.test_case "abort taxonomy" `Quick
            test_monitor_abort_taxonomy;
          Alcotest.test_case "run_meta resets" `Quick
            test_monitor_run_meta_resets;
          Alcotest.test_case "hot keys are bounded" `Quick
            test_monitor_hot_keys_are_bounded;
          Alcotest.test_case "agrees with table and manager" `Quick
            test_monitor_agrees_with_table_and_manager;
          Alcotest.test_case "clock and throughput" `Quick
            test_monitor_clock_and_throughput;
          Alcotest.test_case "aborted waits are charged" `Quick
            test_monitor_aborted_waits_are_charged;
          Alcotest.test_case "windows age with the stream" `Quick
            test_monitor_windows_age_with_the_stream;
          Alcotest.test_case "hot resource tallies" `Quick
            test_monitor_hot_resource_tallies;
          Alcotest.test_case "refuses hot_k <= 0" `Quick
            test_monitor_create_refuses_empty_sketch ] );
      ( "slo",
        [ Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "diagnostics" `Quick test_slo_diagnostics;
          Alcotest.test_case "watch emits breaches" `Quick
            test_slo_watch_emits_breach_and_counts;
          Alcotest.test_case "measured rates" `Quick test_slo_measure_rates ]
      ) ]
