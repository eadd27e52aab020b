(* The trace folds over the simulator's lifecycle runs: what the contention
   profiler, blame, the flamegraph, the collector, the live monitor and the
   Chrome export make of each seeded run of [Lifecycle.runs], pinned by
   digest. *)

let digest text = Digest.to_hex (Digest.string text)

(* [(run, events)] of every lifecycle run, simulated once for all tests. *)
let runs =
  lazy
    (List.map
       (fun (name, config, faults, _trace_digest) ->
         (name, Lifecycle.events ~faults config))
       Lifecycle.runs)

(* [(fold, digest)] for one run's events, in a fixed fold order. *)
let fold_digests name events =
  let profile = Obs.Profile.of_events events in
  let collector = Obs.Collector.create () in
  List.iter (Obs.Collector.handle collector) events;
  [ ("profile", Obs.Json.to_string (Obs.Profile.to_json profile));
    ( "blame",
      Obs.Json.to_string (Obs.Blame.to_json (Obs.Blame.of_events events)) );
    ( "flame",
      Format.asprintf "@[<v>%a@]" Obs.Flame.pp (Obs.Flame.of_report profile) );
    ( "collector",
      Obs.Json.to_string
        (Obs.Registry.to_json (Obs.Collector.registry collector)) );
    ("trace", Obs.Json.to_string (Obs.Trace.to_json [ (name, events) ])) ]
  |> List.map (fun (fold, text) -> (fold, digest text))

(* [(run, [(fold, digest)])], recorded once; never edit a digest to make a
   change pass. The runs with contention victims ([wdl], [running-priority]
   and [overload]) pin no Chrome export: its wait spans outlived their
   waiters' restarts there, and [test_trace_agrees] checks it against the
   profiler instead. *)
let pinned =
  [ ( "youngest",
      [ ("profile", "ac8250effe57a595947d9d1bc364604c");
        ("blame", "2f73476ed165b69b0a896786050eccfa");
        ("flame", "eb182238ce08e00b082e45214723c715");
        ("collector", "f3dfb457eef6d356b48ca39dc8dde78e");
        ("trace", "e4c22821095428e951bdf859a08e164d") ] );
    ( "oldest",
      [ ("profile", "fae2da4faa91d0323cde393fe6e2a4de");
        ("blame", "bfdb0f8ebd182a89fa21617060cc631a");
        ("flame", "fc27f93c9db083dd6940098c6c88c5ec");
        ("collector", "32f7e09cfcb2fe09263991a71ff3aa29");
        ("trace", "5d3d570f676b6ccaed93587b8a48ea91") ] );
    ( "fewest-locks",
      [ ("profile", "bf87fc7dc74cb51e4a0aa39b17202b5f");
        ("blame", "ba6d529f244c6f314874efde0f92c063");
        ("flame", "a5feafcb556f287ca925303c006239fc");
        ("collector", "c3884ea7e7f029f8b49fa926e0dd350e");
        ("trace", "ccfb708d5f5178a6398456688b484b8f") ] );
    ( "least-work",
      [ ("profile", "66df150c3bac6013dad40a837b19c8b6");
        ("blame", "6858c5eed97fb3c240f531f212e49734");
        ("flame", "a0fd00b2e430214ef6091c916a0eae5c");
        ("collector", "b2ee54311369d502b6f771940e942876");
        ("trace", "91f5da76f3680a677dc8bcad36087257") ] );
    ( "timeout",
      [ ("profile", "24bba726883254cb420b99b5256fa5a1");
        ("blame", "4738e691440105ebdd1057244ff0ef3a");
        ("flame", "3a9b818b7e2ffe0e18656157c8802822");
        ("collector", "3fbc660b209e0ef88c5aafb723a00777");
        ("trace", "c8f69fe6866df0380c21d7b4c23ccc03") ] );
    ( "hybrid with faults",
      [ ("profile", "38cc22532f56db855201079b4e5b29ce");
        ("blame", "7781117bcef37fe904dd085507d5b884");
        ("flame", "25541253c5357ddb80a069ee15c65e42");
        ("collector", "9d46369a89a42d230dd291167e130c10");
        ("trace", "035f26747334225f1fc009b8519d635d") ] );
    ( "wdl",
      [ ("profile", "5113e28737dbf09e7751e4364779c04d");
        ("blame", "0844525adaf7012a45aeb288add2efff");
        ("flame", "00ce1154e0859f9cbfa1245986c53651");
        ("collector", "5cd756ac58eb42cae37872efdbb571c5") ] );
    ( "running-priority",
      [ ("profile", "983e8ddb7848ee83111f25822333d0d5");
        ("blame", "81a0d7ada42b83f0ee1e4754634c4b27");
        ("flame", "ff1e8568ef141cec4b072dc165ba21bf");
        ("collector", "01e996a0b88c8f654cadf056a3309ed2") ] );
    ( "restarts and snapshots",
      [ ("profile", "4114a791c09b0578c4051cee3297f367");
        ("blame", "be49c9b69b4622d6492f844166f95809");
        ("flame", "79b869486504e431dacc1dbdbc8a3d29");
        ("collector", "87cdca74effe54d708f5786a57a60216");
        ("trace", "4a3f4b4b74aa4694f8fdcf9a62f0dfa8") ] );
    ( "overload",
      [ ("profile", "6237eb32d64379c00f07c13f043ccfec");
        ("blame", "6cd61c3a6cf27db1dd6e827f2c7bd228");
        ("flame", "6dae3d06f487e382b8b09faba681eae0");
        ("collector", "8c3073ecf2cc07e8391a1c008d5285f2") ] ) ]

let test_folds_pinned () =
  List.iter
    (fun (name, events) ->
      let expected = List.assoc name pinned in
      Alcotest.(check (list (pair string string)))
        (name ^ ": fold digests") expected
        (List.filter
           (fun (fold, _) -> List.mem_assoc fold expected)
           (fold_digests name events)))
    (Lazy.force runs)

(* --------------------------------------------------- Chrome export *)

(* [((txn, resource), ((start, finish), finished))] of the Chrome export's
   wait spans, at one trace microsecond per tick. *)
let chrome_waits events =
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let number json =
    match json with
    | Some (Obs.Json.Float value) -> value
    | Some (Obs.Json.Int value) -> float_of_int value
    | _ -> Alcotest.fail "trace event without a number"
  in
  let trace = Obs.Trace.to_json ~ts_scale:1.0 [ ("run", events) ] in
  match field "traceEvents" trace with
  | Some (Obs.Json.List items) ->
    List.filter_map
      (fun item ->
        match field "cat" item, field "name" item, field "args" item with
        | ( Some (Obs.Json.String "lock"),
            Some (Obs.Json.String name),
            Some args ) ->
          let start = number (field "ts" item) in
          Some
            ( ( int_of_float (number (field "tid" item)),
                String.sub name 5 (String.length name - 5) ),
              ( (start, start +. number (field "dur" item)),
                field "unfinished" args = None ) )
        | _ -> None)
      items
    |> List.sort compare
  | _ -> Alcotest.fail "no traceEvents"

let profile_waits events =
  (Obs.Profile.of_events events).Obs.Profile.spans
  |> List.map (fun (span : Obs.Profile.span) ->
         ( (span.s_txn, span.s_resource),
           ((span.s_start, span.s_finish), span.s_outcome = Obs.Profile.Granted)
         ))
  |> List.sort compare

let contention_victims events =
  List.exists
    (fun event ->
      match event.Obs.Event.kind with
      | Obs.Event.Contention_abort _ -> true
      | _ -> false)
    events

(* The Chrome export's wait spans are the profiler's, one for one, and a
   span is finished exactly when the profiler's was granted — restarts
   included. *)
let test_trace_agrees () =
  let victims =
    List.filter
      (fun (name, events) ->
        Alcotest.(
          check
            (list
               (pair (pair int string) (pair (pair (float 0.0) (float 0.0)) bool))))
          (name ^ ": Chrome waits = profiler waits")
          (profile_waits events) (chrome_waits events);
        contention_victims events)
      (Lazy.force runs)
  in
  Alcotest.(check (list string))
    "runs with contention victims"
    [ "wdl"; "running-priority"; "overload" ]
    (List.map fst victims)

(* ------------------------------------------------------------ Monitor *)

(* What a run leaves in a monitor: the windowed wait quantiles and the
   hot-resource tallies. *)
let monitor_view monitor =
  let window =
    match
      Obs.Registry.find_window (Obs.Monitor.registry monitor) "window.lock_wait"
    with
    | Some window -> Obs.Window.row window
    | None -> []
  in
  ( window,
    List.map
      (fun (resource, stat) ->
        (resource, stat.Obs.Monitor.r_blocked, stat.Obs.Monitor.r_waits))
      (Obs.Monitor.hot_resources ~top:max_int monitor) )

let run_meta label =
  { Obs.Event.time = 0.0; kind = Obs.Event.Run_meta { label } }

(* Everything [colock top] and [Obs.Slo] read of a monitor, as text with
   every float in [%h], so equal texts mean equal readings. *)
let reader_view monitor =
  let buffer = Buffer.create 1024 in
  let add format = Printf.bprintf buffer format in
  let registry = Obs.Monitor.registry monitor in
  add "label %s now %h elapsed %h throughput %h commits %d\n"
    (Option.value ~default:"-" (Obs.Monitor.label monitor))
    (Obs.Monitor.now monitor) (Obs.Monitor.elapsed monitor)
    (Obs.Monitor.throughput monitor)
    (Obs.Monitor.commits monitor);
  List.iter
    (fun name -> add "%s %h\n" name (Obs.Registry.gauge_value registry name))
    [ "active_txns"; "lock_entries"; "wait_queue_depth" ];
  List.iter
    (fun name ->
      match Obs.Registry.find_window registry name with
      | None -> add "%s absent\n" name
      | Some window ->
        add "%s count %d rate %h p50 %h p95 %h p99 %h max %h\n" name
          (Obs.Window.count window) (Obs.Window.rate window)
          (Obs.Window.quantile window 0.50)
          (Obs.Window.quantile window 0.95)
          (Obs.Window.quantile window 0.99)
          (Obs.Window.max_value window))
    [ "window.lock_wait"; {|window.lock_wait{lu="BLU"}|};
      {|window.lock_wait{lu="HoLU"}|}; {|window.lock_wait{lu="HeLU"}|};
      "window.grants"; "window.commits"; "window.aborts";
      "window.deadlocks" ];
  List.iter
    (fun (reason, count) -> add "abort %s %d\n" reason count)
    (Obs.Monitor.aborts monitor);
  List.iter
    (fun (resource, stat) ->
      add "hot %s blocked %h waits %d lu %s\n" resource
        stat.Obs.Monitor.r_blocked stat.Obs.Monitor.r_waits
        (match stat.Obs.Monitor.r_lu with
         | Some { Obs.Event.lu_kind; lu_depth } ->
           Printf.sprintf "%s/%d" lu_kind lu_depth
         | None -> "-"))
    (Obs.Monitor.hot_resources ~top:max_int monitor);
  Buffer.contents buffer

(* [(run, (fresh, shared))]: the digest of a run's reader views, taken
   after every 100th event and at the run's end, for a fresh monitor
   started with [begin_run] and for one monitor fed every run back to back
   behind its [Run_meta] line. *)
let view_digests () =
  let shared = Obs.Monitor.create () in
  List.map
    (fun (name, events) ->
      let fresh = Obs.Monitor.create () in
      Obs.Monitor.begin_run fresh ~label:name;
      Obs.Monitor.handle shared (run_meta name);
      let fresh_views = Buffer.create 4096
      and shared_views = Buffer.create 4096 in
      let sample () =
        Buffer.add_string fresh_views (reader_view fresh);
        Buffer.add_string shared_views (reader_view shared)
      in
      List.iteri
        (fun index event ->
          Obs.Monitor.handle fresh event;
          Obs.Monitor.handle shared event;
          if (index + 1) mod 100 = 0 then sample ())
        events;
      sample ();
      ( name,
        ( digest (Buffer.contents fresh_views),
          digest (Buffer.contents shared_views) ) ))
    (Lazy.force runs)

(* Recorded once; never edit a digest to make a change pass. *)
let pinned_views =
  [ ( "youngest",
      ("ee03b0e26ef3c3b8e57f4c4a5fdabcba", "ee03b0e26ef3c3b8e57f4c4a5fdabcba")
    );
    ( "oldest",
      ("ce36a64cb5c010e469834ca4f5109be7", "e0bfecc6df190eb83166a04921e9c277")
    );
    ( "fewest-locks",
      ("8ced533510f833fb687726eaf1e52c72", "689c53dbe7be276a0c955660c2a05627")
    );
    ( "least-work",
      ("938df90f91dbed4a8085e2a8278f971e", "bded0b4b51b3d5a40f6bc72e7291b5e2")
    );
    ( "timeout",
      ("e67fa1e40b87f3b5d2de4eef416dbde4", "61c990aaf31deddf269bda40698e544a")
    );
    ( "hybrid with faults",
      ("15f62d09d0c75ff2c71ca05d998694e1", "13e21d6551d89dd6454d2f56bfff473f")
    );
    ( "wdl",
      ("22ae3f8e9b7f41dd7d045e3ebbae355e", "1ea145bc9fbc964681cb397033cadd18")
    );
    ( "running-priority",
      ("36b123c4c03bef8da5997bdda1d5f3fd", "5bc935d52f8e8f4945c83518378be741")
    );
    ( "restarts and snapshots",
      ("2bc17faaa0709ff61c909ffdf3c5ff19", "afb1a90d072132874956ccecd009f075")
    );
    ( "overload",
      ("799d16121315d5d5302a4b1060c568e1", "0803277a9024080ef656cd14a348a044")
    ) ]

let test_views_pinned () =
  Alcotest.(check (list (pair string (pair string string))))
    "reader views of fresh and shared monitors" pinned_views (view_digests ())

(* One monitor fed every lifecycle run back to back, as [colock top] replays
   a multi-technique JSONL trace, sees each run as a fresh monitor fed that
   run alone does — compared every 25 events: each run's waits are timed
   from its own events and its windows age on its own clock. *)
let test_monitor_runs_isolated () =
  let shared = Obs.Monitor.create () in
  let windowed = ref 0 in
  List.iter
    (fun (name, events) ->
      let alone = Obs.Monitor.create () in
      List.iteri
        (fun index event ->
          Obs.Monitor.handle shared event;
          Obs.Monitor.handle alone event;
          if index mod 25 = 0 then begin
            let view = monitor_view alone in
            if List.assoc_opt "count" (fst view) > Some 0.0 then incr windowed;
            Alcotest.(check
                        (pair
                           (list (pair string (float 0.0)))
                           (list (triple string (float 0.0) int))))
              (Printf.sprintf "%s, event %d: shared monitor = fresh monitor"
                 name index)
              view (monitor_view shared)
          end)
        (run_meta name :: events))
    (Lazy.force runs);
  Alcotest.(check bool) "windows held waits" true (!windowed > 0)

let () =
  Alcotest.run "spans"
    [ ("lifecycle runs",
       [ Alcotest.test_case "folds pinned" `Quick test_folds_pinned;
         Alcotest.test_case "Chrome export agrees with the profiler" `Quick
           test_trace_agrees;
         Alcotest.test_case "monitor runs isolated" `Quick
           test_monitor_runs_isolated;
         Alcotest.test_case "monitor views pinned" `Quick test_views_pinned
       ]) ]
