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
  let monitor = Obs.Monitor.create () in
  List.iter
    (fun event ->
      Obs.Collector.handle collector event;
      Obs.Monitor.handle monitor event)
    events;
  [ ("profile", Obs.Json.to_string (Obs.Profile.to_json profile));
    ( "blame",
      Obs.Json.to_string (Obs.Blame.to_json (Obs.Blame.of_events events)) );
    ( "flame",
      Format.asprintf "@[<v>%a@]" Obs.Flame.pp (Obs.Flame.of_report profile) );
    ( "collector",
      Obs.Json.to_string
        (Obs.Registry.to_json (Obs.Collector.registry collector)) );
    ("monitor", Obs.Expo.render (Obs.Monitor.registry monitor));
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
        ("monitor", "4106c61a220c17057aae7751264cd274");
        ("trace", "e4c22821095428e951bdf859a08e164d") ] );
    ( "oldest",
      [ ("profile", "fae2da4faa91d0323cde393fe6e2a4de");
        ("blame", "bfdb0f8ebd182a89fa21617060cc631a");
        ("flame", "fc27f93c9db083dd6940098c6c88c5ec");
        ("collector", "32f7e09cfcb2fe09263991a71ff3aa29");
        ("monitor", "0bf294b6b66802a6c41d23d2b5032e44");
        ("trace", "5d3d570f676b6ccaed93587b8a48ea91") ] );
    ( "fewest-locks",
      [ ("profile", "bf87fc7dc74cb51e4a0aa39b17202b5f");
        ("blame", "ba6d529f244c6f314874efde0f92c063");
        ("flame", "a5feafcb556f287ca925303c006239fc");
        ("collector", "c3884ea7e7f029f8b49fa926e0dd350e");
        ("monitor", "4f4d33844f27bbdea94a49edd4f9aaa5");
        ("trace", "ccfb708d5f5178a6398456688b484b8f") ] );
    ( "least-work",
      [ ("profile", "66df150c3bac6013dad40a837b19c8b6");
        ("blame", "6858c5eed97fb3c240f531f212e49734");
        ("flame", "a0fd00b2e430214ef6091c916a0eae5c");
        ("collector", "b2ee54311369d502b6f771940e942876");
        ("monitor", "58a23137b29d383364f4fac0927a1c89");
        ("trace", "91f5da76f3680a677dc8bcad36087257") ] );
    ( "timeout",
      [ ("profile", "24bba726883254cb420b99b5256fa5a1");
        ("blame", "4738e691440105ebdd1057244ff0ef3a");
        ("flame", "3a9b818b7e2ffe0e18656157c8802822");
        ("collector", "3fbc660b209e0ef88c5aafb723a00777");
        ("monitor", "0a75ce08f92b35d92d67e08f49e5e61b");
        ("trace", "c8f69fe6866df0380c21d7b4c23ccc03") ] );
    ( "hybrid with faults",
      [ ("profile", "38cc22532f56db855201079b4e5b29ce");
        ("blame", "7781117bcef37fe904dd085507d5b884");
        ("flame", "25541253c5357ddb80a069ee15c65e42");
        ("collector", "9d46369a89a42d230dd291167e130c10");
        ("monitor", "fe0a0a06ccc4d0c6d5c2a62dd2e3da0d");
        ("trace", "035f26747334225f1fc009b8519d635d") ] );
    ( "wdl",
      [ ("profile", "5113e28737dbf09e7751e4364779c04d");
        ("blame", "0844525adaf7012a45aeb288add2efff");
        ("flame", "00ce1154e0859f9cbfa1245986c53651");
        ("collector", "5cd756ac58eb42cae37872efdbb571c5");
        ("monitor", "1e78c8e16dca1e866e90150f9d4d04ef") ] );
    ( "running-priority",
      [ ("profile", "983e8ddb7848ee83111f25822333d0d5");
        ("blame", "81a0d7ada42b83f0ee1e4754634c4b27");
        ("flame", "ff1e8568ef141cec4b072dc165ba21bf");
        ("collector", "01e996a0b88c8f654cadf056a3309ed2");
        ("monitor", "17406d17e4e21f9f8d4624177e6d68c8") ] );
    ( "restarts and snapshots",
      [ ("profile", "4114a791c09b0578c4051cee3297f367");
        ("blame", "be49c9b69b4622d6492f844166f95809");
        ("flame", "79b869486504e431dacc1dbdbc8a3d29");
        ("collector", "87cdca74effe54d708f5786a57a60216");
        ("monitor", "11742ec4f07708792c0ed0397245222c");
        ("trace", "4a3f4b4b74aa4694f8fdcf9a62f0dfa8") ] );
    ( "overload",
      [ ("profile", "6237eb32d64379c00f07c13f043ccfec");
        ("blame", "6cd61c3a6cf27db1dd6e827f2c7bd228");
        ("flame", "6dae3d06f487e382b8b09faba681eae0");
        ("collector", "8c3073ecf2cc07e8391a1c008d5285f2");
        ("monitor", "cc6ee84dacb871603596029ce91dbc16") ] ) ]

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
           test_monitor_runs_isolated ]) ]
