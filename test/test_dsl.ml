(* Tests for the scenario DSL: parsing, diagnostics, the canonical
   print/parse round-trip, deterministic DSL-to-jobs compilation, and
   pinned digests for the workload generator (so a refactor that silently
   changes generated databases — and with them every committed scenario
   baseline — fails loudly here first). *)

module Dsl = Workload.Dsl
module Graph = Colock.Instance_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_exn text =
  match Dsl.parse text with
  | Ok scenario -> scenario
  | Error message -> Alcotest.fail message

(* ---------------------------------------------------------------- parsing *)

let test_parse_defaults () =
  let scenario = parse_exn "scenario tiny\n" in
  check_string "name" "tiny" scenario.Dsl.name;
  check_int "jobs default" 40 scenario.Dsl.jobs;
  check_int "seed default" 17 scenario.Dsl.seed;
  check_int "all three techniques" 3 (List.length scenario.Dsl.techniques);
  check_bool "no faults" false (Dsl.faults_active scenario.Dsl.faults);
  check_int "no slo rules" 0 (List.length scenario.Dsl.slo)

let test_parse_full () =
  let scenario =
    parse_exn
      "scenario full\n\
       catalog cells=8 objects=12 robots=3 effectors=32 refs=1\n\
       jobs 100\n\
       seed 23\n\
       window 250\n\
       techniques proposed rule4\n\
       arrivals bursty burst=10 every=150 spread=2\n\
       popularity zipf skew=1.2\n\
       mix read=0.4 update=0.3 library=0.2 checkout=0.1\n\
       checkout hold=1500 steps=2\n\
       steps 3\n\
       cost 80\n\
       faults crash=0.05 stall=0.1 factor=4 hog=0.02\n\
       slo p99_wait < 500\n\
       slo abort_rate < 0.5\n"
  in
  check_int "cells" 8 scenario.Dsl.catalog.Dsl.cells;
  check_int "jobs" 100 scenario.Dsl.jobs;
  (match scenario.Dsl.arrivals with
   | Dsl.Bursty { burst; every; spread } ->
     check_int "burst" 10 burst;
     check_int "every" 150 every;
     check_int "spread" 2 spread
   | _ -> Alcotest.fail "bursty arrivals expected");
  (match scenario.Dsl.popularity with
   | Dsl.Zipf skew -> Alcotest.(check (float 1e-9)) "skew" 1.2 skew
   | Dsl.Flat -> Alcotest.fail "zipf popularity expected");
  check_int "two techniques" 2 (List.length scenario.Dsl.techniques);
  check_int "checkout hold" 1500 scenario.Dsl.checkout_hold;
  check_bool "faults active" true (Dsl.faults_active scenario.Dsl.faults);
  check_int "two slo rules" 2 (List.length scenario.Dsl.slo)

let contains fragment message =
  let rec scan index =
    index + String.length fragment <= String.length message
    && (String.sub message index (String.length fragment) = fragment
        || scan (index + 1))
  in
  scan 0

let parse_error ?file text =
  match Dsl.parse ?file text with
  | Ok _ -> Alcotest.fail "parse should fail"
  | Error message -> message

let test_parse_diagnostics () =
  let check_mentions label fragment message =
    check_bool label true (contains fragment message)
  in
  check_mentions "offending directive" "\"jbos\"" (parse_error "jbos 3\n");
  check_mentions "offending field token" "cells=\"many\""
    (parse_error "catalog cells=many\n");
  check_mentions "unknown field named" "\"depth\""
    (parse_error "catalog depth=3\n");
  check_mentions "position carries the file" "suite.scn:2:"
    (parse_error ~file:"suite.scn" "scenario ok\njobs twenty\n");
  check_mentions "slo diagnostics keep their position" "suite.scn:2:"
    (parse_error ~file:"suite.scn" "scenario ok\nslo bogus < 1\n");
  check_mentions "mix must sum to one" "sum to 1"
    (parse_error "mix read=0.5 update=0.4\n");
  check_mentions "technique typo" "\"propsed\""
    (parse_error "techniques propsed\n")

(* A scenario's inline [slo] rules go through the SLO engine's parser, so
   a threshold that is not a finite number is refused at its line: a nan
   threshold would never hold and an infinite one never breach. *)
let test_parse_non_finite_slo_thresholds () =
  List.iter
    (fun threshold ->
      let message =
        parse_error ~file:"suite.scn"
          (Printf.sprintf "scenario ok\nslo abort_rate < %s\n" threshold)
      in
      check_bool
        (Printf.sprintf "%s refused at its line" threshold)
        true
        (contains
           (Printf.sprintf "suite.scn:2: invalid threshold %S" threshold)
           message))
    [ "nan"; "inf"; "-inf"; "infinity" ];
  check_int "a finite threshold parses" 1
    (List.length (parse_exn "scenario ok\nslo abort_rate < 1e3\n").Dsl.slo)

(* The canonical printer is a fixed point: print (parse (print s)) = print s
   for scenarios exercising every directive. *)
let test_print_round_trip () =
  List.iter
    (fun text ->
      let first = Dsl.print (parse_exn text) in
      let second = Dsl.print (parse_exn first) in
      check_string "round trip" first second)
    [ "scenario a\n";
      "scenario b\narrivals poisson mean=12.5\npopularity zipf skew=0.8\n";
      "scenario c\nmix read=0.25 update=0.25 library=0.25 checkout=0.25\n\
       checkout hold=900 steps=3\nfaults crash=0.1 stall=0.2 factor=2 \
       hog=0.05\nslo p95_wait{lu=HoLU} <= 25\nslo throughput > 0.01\n";
      "scenario d\nadmission initial=4 min=2 max=32 queue=8\n\
       limits restart=wdl:2 every=25 p95=150 aborts=0.4 depth=16\n\
       budget retry=0.5:8 breaker=0.8:200:3\n" ]

let test_parse_overload () =
  let scenario =
    parse_exn
      "scenario controlled\n\
       admission initial=4 min=2 max=32 queue=8\n\
       limits restart=wdl:2 every=25 p95=150 aborts=0.4 depth=16\n\
       budget retry=0.5:8 breaker=0.9:100\n"
  in
  check_bool "overload active" true (Dsl.overload_active scenario.Dsl.overload);
  (match scenario.Dsl.overload.Dsl.admission with
   | Some gate ->
     check_int "initial" 4 gate.Robust.Admission.initial;
     check_int "queue" 8 gate.Robust.Admission.queue_capacity
   | None -> Alcotest.fail "admission gate expected");
  check_bool "wdl restart" true
    (scenario.Dsl.overload.Dsl.restart = Lockmgr.Policy.Wait_depth 2);
  check_int "control period" 25
    scenario.Dsl.overload.Dsl.controller.Robust.Controller.every;
  (match scenario.Dsl.overload.Dsl.retry with
   | Some bucket ->
     Alcotest.(check (float 1e-9)) "retry ratio" 0.5 bucket.Robust.Budget.ratio
   | None -> Alcotest.fail "retry budget expected");
  (match scenario.Dsl.overload.Dsl.breaker with
   | Some breaker ->
     check_int "breaker open_for" 100 breaker.Robust.Breaker.open_for
   | None -> Alcotest.fail "breaker expected");
  check_bool "defaults stay inert" false
    (Dsl.overload_active (parse_exn "scenario plain\n").Dsl.overload);
  (* bad stanzas diagnose cleanly *)
  let check_mentions label fragment message =
    check_bool label true (contains fragment message)
  in
  check_mentions "unknown admission field" "\"burst\""
    (parse_error "admission burst=3\n");
  check_mentions "bad restart policy" "wdl"
    (parse_error "limits restart=wibble\n");
  check_mentions "bad breaker spec" "RATE:OPEN"
    (parse_error "budget breaker=nope\n")

(* --------------------------------------------------------- compilation *)

let ops_fingerprint specs =
  String.concat ";"
    (List.map
       (fun (spec : Sim.Scenario.job_spec) ->
         Printf.sprintf "%d@%d:%s" spec.Sim.Scenario.arrival
           spec.Sim.Scenario.access_cost
           (String.concat ","
              (List.map
                 (function
                   | Sim.Scenario.Node_read node ->
                     Format.asprintf "r%a" Colock.Node_id.pp node
                   | Sim.Scenario.Node_update node ->
                     Format.asprintf "u%a" Colock.Node_id.pp node)
                 spec.Sim.Scenario.ops)))
       specs)

let compile_fingerprint scenario =
  let db = Dsl.database scenario in
  let graph = Graph.build db in
  ops_fingerprint (Sim.Scenario.of_dsl db graph scenario)

let test_of_dsl_deterministic () =
  let text =
    "scenario det\njobs 30\nseed 7\narrivals poisson mean=8\n\
     popularity zipf skew=1.1\n\
     mix read=0.4 update=0.3 library=0.2 checkout=0.1\n"
  in
  let first = compile_fingerprint (parse_exn text) in
  let second = compile_fingerprint (parse_exn text) in
  check_string "same seed, same jobs" first second;
  let reseeded =
    compile_fingerprint (parse_exn (text ^ "seed 8\n"))
  in
  check_bool "different seed, different jobs" false (first = reseeded)

let test_of_dsl_shapes () =
  let scenario =
    parse_exn
      "scenario shapes\njobs 20\nseed 5\n\
       mix read=0 update=0 library=0 checkout=1\n\
       checkout hold=1234 steps=3\narrivals bursty burst=5 every=100 \
       spread=2\n"
  in
  let db = Dsl.database scenario in
  let graph = Graph.build db in
  let specs = Sim.Scenario.of_dsl db graph scenario in
  check_int "one spec per job" 20 (List.length specs);
  List.iter
    (fun (spec : Sim.Scenario.job_spec) ->
      check_int "checkout hold as access cost" 1234
        spec.Sim.Scenario.access_cost;
      check_int "checkout steps" 3 (List.length spec.Sim.Scenario.ops))
    specs;
  (* bursty arrivals: job 7 sits in the second burst *)
  let arrival index =
    (List.nth specs index).Sim.Scenario.arrival
  in
  check_int "burst 0 spacing" 2 (arrival 1);
  check_int "burst 1 starts at every" 100 (arrival 5)

(* ------------------------------------------------- generator digests *)

(* A canonical dump of a generated database: relations sorted by name,
   keys ascending, values printed through the nf2 pretty-printer. Pinned
   MD5s mean any change to the generator output — field order, naming,
   sampling — is a deliberate, reviewed event (it invalidates every
   committed scenario baseline). *)
let database_digest db =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun store ->
      Buffer.add_string buffer (Nf2.Relation.name store);
      Buffer.add_char buffer '\n';
      List.iter
        (fun key ->
          match Nf2.Relation.find store key with
          | Some value ->
            Buffer.add_string buffer
              (Printf.sprintf "%s=%s\n" key
                 (Format.asprintf "%a" Nf2.Value.pp value))
          | None -> ())
        (List.sort String.compare (Nf2.Relation.keys store)))
    (List.sort
       (fun a b ->
         String.compare (Nf2.Relation.name a) (Nf2.Relation.name b))
       (Nf2.Database.relations db));
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let test_generator_digests () =
  check_string "default manufacturing (pinned)"
    "f5e0cd512fcc02f31b86575a47a02c49"
    (database_digest
       (Workload.Generator.manufacturing
          Workload.Generator.default_manufacturing));
  let baseline =
    database_digest
      (Workload.Generator.manufacturing
         Workload.Generator.default_manufacturing)
  in
  let reseeded =
    database_digest
      (Workload.Generator.manufacturing
         { Workload.Generator.default_manufacturing with seed = 99 })
  in
  check_bool "different seed, different database" false
    (baseline = reseeded);
  check_string "scenario database is the generator's"
    (database_digest
       (Dsl.database
          (parse_exn "scenario base\ncatalog cells=6 objects=10 robots=4 \
                      effectors=16 refs=2\nseed 11\n")))
    (database_digest
       (Workload.Generator.manufacturing
          { Workload.Generator.cells = 6; objects_per_cell = 10;
            robots_per_cell = 4; effectors = 16; effectors_per_robot = 2;
            seed = 11 }))

let () =
  Alcotest.run "dsl"
    [ ( "parse",
        [ Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "full grammar" `Quick test_parse_full;
          Alcotest.test_case "diagnostics" `Quick test_parse_diagnostics;
          Alcotest.test_case "non-finite slo thresholds" `Quick
            test_parse_non_finite_slo_thresholds;
          Alcotest.test_case "print round-trips" `Quick
            test_print_round_trip;
          Alcotest.test_case "overload stanzas" `Quick
            test_parse_overload ] );
      ( "compile",
        [ Alcotest.test_case "seed determinism" `Quick
            test_of_dsl_deterministic;
          Alcotest.test_case "job shapes" `Quick test_of_dsl_shapes ] );
      ( "generator",
        [ Alcotest.test_case "pinned digests" `Quick
            test_generator_digests ] ) ]
