(* Tests for the live-operations layer: gauges, sliding windows, registry
   reset, Prometheus exposition, the HTTP listener, the monitor itself
   (cross-checked against the lock table and transaction manager it
   watches) and the SLO engine. *)

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

(* Registry gauges are plain levels: a set replaces the value, and a
   removed gauge leaves every export and reads 0 again. *)
let test_registry_gauges () =
  let registry = Obs.Registry.create () in
  let check_gauges = Alcotest.(check (list (pair string (float 1e-9)))) in
  check_float "never set" 0.0 (Obs.Registry.gauge_value registry "level");
  Obs.Registry.set_gauge registry "level" 3.0;
  Obs.Registry.set_gauge registry "level" 5.0;
  Obs.Registry.set_gauge registry "evicted" 1.0;
  check_float "a set replaces" 5.0 (Obs.Registry.gauge_value registry "level");
  check_gauges "sorted by name" [ ("evicted", 1.0); ("level", 5.0) ]
    (Obs.Registry.gauges registry);
  Obs.Registry.remove_gauge registry "evicted";
  Obs.Registry.remove_gauge registry "absent";
  check_gauges "removed from the list" [ ("level", 5.0) ]
    (Obs.Registry.gauges registry);
  check_bool "and from the row" false
    (List.mem_assoc "evicted" (Obs.Registry.row registry));
  check_float "reads 0 again" 0.0 (Obs.Registry.gauge_value registry "evicted")

(* ------------------------------------------------------------------- Expo *)

let test_expo_golden () =
  let registry = Obs.Registry.create () in
  Obs.Registry.incr registry "events.lock_granted" ~by:3;
  Obs.Registry.set_gauge registry "active_txns" 2.0;
  Obs.Registry.observe registry "lock_wait" 16.0;
  let plain = Obs.Registry.window ~span:100.0 registry "window.grants" in
  Obs.Window.mark plain ~now:10.0;
  let labelled =
    Obs.Registry.window ~span:100.0 registry "window.grants{lu=\"BLU\"}"
  in
  Obs.Window.mark labelled ~now:10.0;
  let rendered = Obs.Expo.render registry in
  let expected =
    "# TYPE colock_active_txns gauge\n\
     colock_active_txns 2\n\
     # TYPE colock_events_lock_granted_total counter\n\
     colock_events_lock_granted_total 3\n\
     # TYPE colock_lock_wait summary\n\
     colock_lock_wait{quantile=\"0.5\"} 16\n\
     colock_lock_wait{quantile=\"0.95\"} 16\n\
     colock_lock_wait{quantile=\"0.99\"} 16\n\
     colock_lock_wait_sum 16\n\
     colock_lock_wait_count 1\n\
     # TYPE colock_window_grants gauge\n\
     colock_window_grants_count 1\n\
     colock_window_grants_rate 0.01\n\
     colock_window_grants_p50 1\n\
     colock_window_grants_p95 1\n\
     colock_window_grants_p99 1\n\
     colock_window_grants_max 1\n\
     colock_window_grants_count{lu=\"BLU\"} 1\n\
     colock_window_grants_rate{lu=\"BLU\"} 0.01\n\
     colock_window_grants_p50{lu=\"BLU\"} 1\n\
     colock_window_grants_p95{lu=\"BLU\"} 1\n\
     colock_window_grants_p99{lu=\"BLU\"} 1\n\
     colock_window_grants_max{lu=\"BLU\"} 1\n"
  in
  check_string "exposition document" expected rendered

let test_expo_sanitize () =
  check_string "dots and braces become underscores" "window_lock_wait"
    (Obs.Expo.sanitize "window.lock_wait");
  check_string "leading digit escaped" "_9lives" (Obs.Expo.sanitize "9lives")

(* Label values are arbitrary (scenario names flow through them): the 0.0.4
   escapes — backslash, double-quote, newline — must survive a build via
   [labelled] and re-render exactly once. *)
let test_expo_label_escaping () =
  check_string "escape" "a\\\\b\\\"c\\nd"
    (Obs.Expo.escape_label_value "a\\b\"c\nd");
  let registry = Obs.Registry.create () in
  Obs.Registry.set_gauge registry
    (Obs.Expo.labelled "scenario_info"
       [ ("scenario", "we\"ird\\name\nline") ])
    1.0;
  check_string "golden escaped gauge"
    "# TYPE colock_scenario_info gauge\n\
     colock_scenario_info{scenario=\"we\\\"ird\\\\name\\nline\"} 1\n"
    (Obs.Expo.render registry);
  check_string "empty label list is the bare name" "plain"
    (Obs.Expo.labelled "plain" [])

(* ------------------------------------------------------------------- Http *)

let http_get ~port path =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close socket)
    (fun () ->
      Unix.connect socket (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n" path
      in
      ignore
        (Unix.write_substring socket request 0 (String.length request) : int);
      let buffer = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let count = Unix.read socket chunk 0 (Bytes.length chunk) in
        if count > 0 then begin
          Buffer.add_subbytes buffer chunk 0 count;
          drain ()
        end
      in
      drain ();
      Buffer.contents buffer)

let status_of response =
  match String.split_on_char ' ' response with
  | _http :: status :: _ -> int_of_string status
  | _ -> -1

let test_http_serves_and_routes () =
  let server =
    Obs_http.start ~port:0 (fun path ->
        if String.equal path "/metrics" then
          Some
            { Obs_http.status = 200; content_type = Obs.Expo.content_type;
              body = "colock_up 1\n" }
        else None)
  in
  Fun.protect
    ~finally:(fun () -> Obs_http.stop server)
    (fun () ->
      let port = Obs_http.port server in
      check_bool "ephemeral port bound" true (port > 0);
      let response = http_get ~port "/metrics" in
      check_int "metrics route" 200 (status_of response);
      let has_body =
        let marker = "colock_up 1" in
        let rec scan index =
          index + String.length marker <= String.length response
          && (String.sub response index (String.length marker) = marker
              || scan (index + 1))
        in
        scan 0
      in
      check_bool "body served" true has_body;
      check_int "query string stripped" 200
        (status_of (http_get ~port "/metrics?debug=1"));
      check_int "unknown path is 404" 404 (status_of (http_get ~port "/nope")))

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

(* Robustness signals become live gauges: the AIMD limiter snapshot, the
   breaker state machine (0 closed / 1 half-open / 2 open), and the
   exhausted-retry-budget count. *)
let test_monitor_robustness_gauges () =
  let monitor = Obs.Monitor.create () in
  let handle event = Obs.Monitor.handle monitor event in
  let registry = Obs.Monitor.registry monitor in
  let gauge name = Obs.Registry.gauge_value registry name in
  handle
    (ev 1.0
       (Event.Admission_limit { limit = 6; inflight = 4; queued = 3; shed = 2 }));
  check_float "limit gauge" 6.0 (gauge "admission_limit");
  check_float "inflight gauge" 4.0 (gauge "admission_inflight");
  check_float "queued gauge" 3.0 (gauge "admission_queued");
  check_float "shed gauge" 2.0 (gauge "admission_shed");
  handle
    (ev 2.0 (Event.Breaker { from_state = "closed"; to_state = "open" }));
  check_float "breaker open = 2" 2.0 (gauge "breaker_state");
  handle
    (ev 3.0 (Event.Breaker { from_state = "open"; to_state = "half-open" }));
  check_float "breaker half-open = 1" 1.0 (gauge "breaker_state");
  handle
    (ev 4.0 (Event.Breaker { from_state = "half-open"; to_state = "closed" }));
  check_float "breaker closed = 0" 0.0 (gauge "breaker_state");
  handle (ev 5.0 (Event.Retry_denied { txn = 7; restarts = 3 }));
  handle (ev 6.0 (Event.Retry_denied { txn = 8; restarts = 3 }));
  check_float "retry_denied mirrors the counter" 2.0 (gauge "retry_denied");
  check_int "counter still counts" 2
    (Obs.Registry.counter registry "retry.denied")

(* Hot-resource and hot-blocker tracking is sketch-bounded: at most hot_k
   labelled gauges live in the registry, blame splits across the holders
   stamped on the wait, and evicted keys take their gauge with them. *)
let test_monitor_hot_keys_are_bounded () =
  let monitor = Obs.Monitor.create ~hot_k:2 () in
  let handle event = Obs.Monitor.handle monitor event in
  let registry = Obs.Monitor.registry monitor in
  let holder txn mode = { Event.h_txn = txn; h_mode = mode; h_lu = None } in
  let waited ~holders txn resource =
    Event.Lock_waited { txn; resource; mode = "X"; blockers = []; lu = None;
                        holders }
  in
  let grant txn resource =
    Event.Lock_granted
      { txn; resource; mode = "X"; immediate = false; lu = None; holders = [] }
  in
  (* r1 blocks 30 ticks (split between holders T7 and T8, 15 each), r2
     blocks 10 more on T7 alone — the blocker sketch shares the k bound *)
  handle (ev 0.0 (waited ~holders:[ holder 7 "X"; holder 8 "S" ] 1 "r1"));
  handle (ev 5.0 (waited ~holders:[ holder 7 "X" ] 2 "r2"));
  handle (ev 15.0 (grant 2 "r2"));
  handle (ev 30.0 (grant 1 "r1"));
  check_float "hot resource gauge carries blocked time" 30.0
    (Obs.Registry.gauge_value registry "hot_resource{resource=\"r1\"}");
  Alcotest.(check (list (pair string (float 1e-9))))
    "blame split across enqueue-time holders"
    [ ("T7", 25.0); ("T8", 15.0) ]
    (Obs.Monitor.hot_blockers monitor);
  (* a third resource overflows k=2: the smallest (r2) is evicted and its
     gauge leaves the registry with it *)
  handle (ev 40.0 (waited ~holders:[ holder 9 "X" ] 3 "r3"));
  handle (ev 80.0 (grant 3 "r3"));
  let resources =
    List.map (fun (resource, _) -> resource)
      (Obs.Monitor.hot_resources monitor)
  in
  Alcotest.(check (list string)) "bounded at hot_k" [ "r3"; "r1" ] resources;
  check_float "evicted gauge dropped" 0.0
    (Obs.Registry.gauge_value registry "hot_resource{resource=\"r2\"}");
  check_bool "survivor gauges stay" true
    (Obs.Registry.gauge_value registry "hot_resource{resource=\"r3\"}" > 0.0);
  handle (ev 0.0 (Event.Run_meta { label = "next" }));
  check_int "reset clears hot blockers" 0
    (List.length (Obs.Monitor.hot_blockers monitor));
  check_bool "reset drops labelled gauges entirely" true
    (List.for_all
       (fun (name, _) ->
         not (String.length name >= 4 && String.sub name 0 4 = "hot_"))
       (Obs.Registry.gauges (Obs.Monitor.registry monitor)))

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

let test_monitor_self_accounting () =
  let monitor = Obs.Monitor.create () in
  let sink = Obs.Sink.create [] in
  Obs.Sink.attach sink (Obs.Monitor.handle monitor);
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  Obs.Monitor.sync_sink monitor sink;
  let registry = Obs.Monitor.registry monitor in
  check_float "emitted meta-metric" 2.0
    (Obs.Registry.gauge_value registry "obs_events_emitted");
  check_float "nothing dropped" 0.0
    (Obs.Registry.gauge_value registry "obs_events_dropped")

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
          Alcotest.test_case "gauges set and remove" `Quick
            test_registry_gauges ] );
      ( "expo",
        [ Alcotest.test_case "golden document" `Quick test_expo_golden;
          Alcotest.test_case "sanitize" `Quick test_expo_sanitize;
          Alcotest.test_case "label escaping" `Quick
            test_expo_label_escaping ] );
      ( "http",
        [ Alcotest.test_case "serves and routes" `Quick
            test_http_serves_and_routes ] );
      ( "monitor",
        [ Alcotest.test_case "gauges and windows" `Quick
            test_monitor_gauges_and_windows;
          Alcotest.test_case "abort taxonomy" `Quick
            test_monitor_abort_taxonomy;
          Alcotest.test_case "run_meta resets" `Quick
            test_monitor_run_meta_resets;
          Alcotest.test_case "robustness gauges" `Quick
            test_monitor_robustness_gauges;
          Alcotest.test_case "hot keys are bounded" `Quick
            test_monitor_hot_keys_are_bounded;
          Alcotest.test_case "agrees with table and manager" `Quick
            test_monitor_agrees_with_table_and_manager;
          Alcotest.test_case "self accounting" `Quick
            test_monitor_self_accounting ] );
      ( "slo",
        [ Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "diagnostics" `Quick test_slo_diagnostics;
          Alcotest.test_case "watch emits breaches" `Quick
            test_slo_watch_emits_breach_and_counts;
          Alcotest.test_case "measured rates" `Quick test_slo_measure_rates ]
      ) ]
