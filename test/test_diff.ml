(* Tests for the differential profiler: exact delta conservation across
   every attribution partition (hand-built traces, the committed JSONL
   fixtures diffed against each other, and QCheck-generated pairs),
   explicit drift for one-sided keys and runs, deterministic lexicographic
   tie-breaking in every ranked table, and the truncated-final-line
   diagnostic of the JSONL reader that feeds [colock why]. *)

module Event = Obs.Event
module Diff = Obs.Diff
module Profile = Obs.Profile

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let at time kind = { Event.time; kind }

let holder ?(mode = "S") txn = { Event.h_txn = txn; h_mode = mode; h_lu = None }

let wait ?(blockers = []) ?(holders = []) ?lu txn resource mode =
  Event.Lock_waited { txn; resource; mode; blockers; lu; holders }

let grant ?(immediate = false) ?lu txn resource mode =
  Event.Lock_granted { txn; resource; mode; immediate; lu; holders = [] }

let lu kind depth = { Event.lu_kind = kind; lu_depth = depth }

let partitions (report : Diff.report) =
  [ ("levels", report.levels); ("depths", report.depths);
    ("resources", report.resources); ("cells", report.cells);
    ("blockers", report.blockers) ]

let assert_partitions_exact name (report : Diff.report) =
  Alcotest.(check bool) (name ^ ": conserves") true (Diff.conserves report);
  List.iter
    (fun (partition, entries) ->
      let sum =
        List.fold_left
          (fun sum (entry : Diff.entry) -> sum +. entry.e_delta)
          0.0 entries
      in
      check_float
        (Printf.sprintf "%s: %s deltas sum to the total delta" name partition)
        report.delta sum)
    (partitions report)

(* ------------------------------------------------------- hand-built diff *)

(* Base: T1 blocked 10 on ra (BLU depth 1, X<-S behind T9), T1 blocked 20
   on rb (untagged, queue).  Cand: ra's wait stretches to 25 and rb's wait
   disappears, while a new HeLU wait appears on rc. *)
let base_events =
  [ at 0.0 (wait ~blockers:[ 9 ] ~holders:[ holder 9 ] ~lu:(lu "BLU" 1) 1
              "ra" "X");
    at 10.0 (grant ~lu:(lu "BLU" 1) 1 "ra" "X");
    at 10.0 (wait 1 "rb" "S");
    at 30.0 (grant 1 "rb" "S") ]

let cand_events =
  [ at 0.0 (wait ~blockers:[ 9 ] ~holders:[ holder 9 ] ~lu:(lu "BLU" 1) 1
              "ra" "X");
    at 25.0 (grant ~lu:(lu "BLU" 1) 1 "ra" "X");
    at 25.0 (wait ~blockers:[ 9 ] ~holders:[ holder ~mode:"X" 9 ]
               ~lu:(lu "HeLU" 4) 2 "rc" "S");
    at 32.0 (grant ~lu:(lu "HeLU" 4) 2 "rc" "S") ]

let entry key entries =
  List.find (fun (entry : Diff.entry) -> entry.e_key = key) entries

let test_hand_built () =
  let base = Profile.of_events base_events in
  let cand = Profile.of_events cand_events in
  let report = Diff.of_reports ~base ~cand () in
  check_float "base total" 30.0 report.Diff.base_total;
  check_float "cand total" 32.0 report.Diff.cand_total;
  check_float "delta" 2.0 report.Diff.delta;
  assert_partitions_exact "hand-built" report;
  let ra = entry "ra" report.Diff.resources in
  check_float "ra grew by 15" 15.0 ra.Diff.e_delta;
  Alcotest.(check bool) "ra on both sides" true (ra.Diff.e_status = Diff.Both);
  let rb = entry "rb" report.Diff.resources in
  check_float "rb vanished" (-20.0) rb.Diff.e_delta;
  Alcotest.(check bool) "rb only in base" true
    (rb.Diff.e_status = Diff.Only_base);
  let rc = entry "rc" report.Diff.resources in
  check_float "rc appeared" 7.0 rc.Diff.e_delta;
  Alcotest.(check bool) "rc only in cand" true
    (rc.Diff.e_status = Diff.Only_cand);
  (* the untagged wait lands in explicit untagged buckets, not the void *)
  check_float "untagged level tracks rb" (-20.0)
    (entry "untagged" report.Diff.levels).Diff.e_delta;
  check_float "untagged depth tracks rb" (-20.0)
    (entry "untagged" report.Diff.depths).Diff.e_delta;
  check_float "queue cell tracks rb" (-20.0)
    (entry "S<-queue" report.Diff.cells).Diff.e_delta;
  check_float "blocker T9 nets +22" 22.0
    (entry "T9" report.Diff.blockers).Diff.e_delta

let test_self_diff_is_zero () =
  let base = Profile.of_events base_events in
  let report = Diff.of_reports ~base ~cand:base () in
  check_float "self delta" 0.0 report.Diff.delta;
  assert_partitions_exact "self" report;
  List.iter
    (fun (partition, entries) ->
      List.iter
        (fun (entry : Diff.entry) ->
          check_float
            (Printf.sprintf "self: %s/%s is zero" partition entry.e_key)
            0.0 entry.e_delta)
        entries)
    (partitions report)

(* A span blocked behind two distinct holder modes splits equally across
   the two conflict cells — charging both in full (as Profile's matrix
   does) could never conserve the delta. *)
let test_multi_holder_split () =
  let cand =
    Profile.of_events
      [ at 0.0 (wait ~blockers:[ 7; 8 ]
                  ~holders:[ holder ~mode:"S" 7; holder ~mode:"X" 8 ] 1 "r"
                  "X");
        at 9.0 (grant 1 "r" "X") ]
  in
  let base = Profile.of_events [] in
  let report = Diff.of_reports ~base ~cand () in
  check_float "delta is the whole wait" 9.0 report.Diff.delta;
  assert_partitions_exact "multi-holder" report;
  check_float "X<-S takes half" 4.5
    (entry "X<-S" report.Diff.cells).Diff.e_delta;
  check_float "X<-X takes half" 4.5
    (entry "X<-X" report.Diff.cells).Diff.e_delta;
  check_float "blockers split too" 4.5
    (entry "T7" report.Diff.blockers).Diff.e_delta

(* --------------------------------------------------- deterministic ties *)

(* Two resources with identical deltas must rank lexicographically, so a
   --top cut is stable run to run. *)
let test_tie_breaking () =
  let run resources =
    List.concat_map
      (fun (resource, duration) ->
        [ at 0.0 (wait ~blockers:[ 9 ] ~holders:[ holder 9 ] 1 resource "X");
          at duration (grant 1 resource "X") ])
      resources
  in
  let base = Profile.of_events (run [ ("rb", 10.0); ("ra", 10.0) ]) in
  let cand = Profile.of_events (run [ ("rb", 25.0); ("ra", 25.0) ]) in
  let report = Diff.of_reports ~base ~cand () in
  assert_partitions_exact "ties" report;
  Alcotest.(check (list string))
    "equal resource deltas rank by key"
    [ "ra"; "rb" ]
    (List.map (fun (entry : Diff.entry) -> entry.e_key)
       report.Diff.resources);
  (* the same discipline in the blockers partition: equal shares, label
     order *)
  let blockers =
    (Diff.of_reports ~base:(Profile.of_events [])
       ~cand:
         (Profile.of_events
            [ at 0.0 (wait ~blockers:[ 2 ] ~holders:[ holder 2 ] 1 "ra" "X");
              at 10.0 (grant 1 "ra" "X");
              at 0.0 (wait ~blockers:[ 3 ] ~holders:[ holder 3 ] 4 "rb" "X");
              at 10.0 (grant 4 "rb" "X") ])
       ())
      .Diff.blockers
  in
  Alcotest.(check (list string))
    "equal blocker shares rank by label" [ "T2"; "T3" ]
    (List.map (fun (entry : Diff.entry) -> entry.e_key) blockers)

(* ------------------------------------------------------- pairing drift *)

let labelled label events = at 0.0 (Event.Run_meta { label }) :: events

let test_pairing_drift () =
  let base =
    labelled "calm" base_events @ labelled "extinct" base_events
  in
  let cand = labelled "calm" cand_events @ labelled "newborn" cand_events in
  let pairing =
    Diff.pair_reports
      ~base:(Trace_runs.profiles_of_events base)
      ~cand:(Trace_runs.profiles_of_events cand)
  in
  check_int "one paired run" 1 (List.length pairing.Diff.pairs);
  Alcotest.(check (list string))
    "base-only run is drift" [ "extinct" ] pairing.Diff.only_base;
  Alcotest.(check (list string))
    "cand-only run is drift" [ "newborn" ] pairing.Diff.only_cand;
  let report = List.hd pairing.Diff.pairs in
  Alcotest.(check (option string))
    "paired by label" (Some "calm") report.Diff.label;
  assert_partitions_exact "paired run" report

(* ----------------------------------------------- fixture conservation *)

let load_fixture path =
  let errors = ref [] in
  let profiles =
    Trace_runs.profiles
      ~on_error:(fun message -> errors := message :: !errors)
      path
  in
  Alcotest.(check (list string)) (path ^ ": loads clean") [] !errors;
  profiles

let test_fixture_conservation () =
  let analyze = load_fixture "analyze.t/fixture.jsonl" in
  let blame = load_fixture "blame.t/fixture.jsonl" in
  (* every run profile of one fixture diffed against every profile of the
     other (and itself): conservation cannot depend on the pairing *)
  let sides = analyze @ blame in
  List.iter
    (fun base ->
      List.iter
        (fun cand ->
          let report = Diff.of_reports ~base ~cand () in
          assert_partitions_exact "fixture pair" report)
        sides)
    sides

(* ------------------------------------------------------ QCheck pairs *)

let trace_gen =
  QCheck.Gen.(
    let span_gen index =
      let* resource = oneofl [ "ra"; "rb"; "rc"; "rd" ] in
      let* mode = oneofl [ "S"; "X"; "SX" ] in
      let* blockers = oneof [ return []; return [ 7 ]; return [ 7; 8; 9 ] ] in
      let holders =
        List.map
          (fun txn ->
            { Event.h_txn = txn;
              h_mode = (if txn mod 2 = 0 then "X" else "S");
              h_lu = None })
          blockers
      in
      let* tagged = bool in
      let lu =
        if tagged then
          Some { Event.lu_kind = (if index mod 2 = 0 then "BLU" else "HeLU");
                 lu_depth = index mod 5 }
        else None
      in
      let* start = float_bound_inclusive 100.0 in
      let* duration = float_bound_inclusive 50.0 in
      let* granted = bool in
      let txn = 100 + index in
      let opening =
        at start (Event.Lock_waited { txn; resource; mode; blockers; lu;
                                      holders })
      in
      let closing =
        if granted then
          [ at (start +. duration)
              (Event.Lock_granted
                 { txn; resource; mode; immediate = false; lu; holders = [] })
          ]
        else []
      in
      return (opening :: closing)
    in
    let* count = int_range 0 12 in
    let* spans = flatten_l (List.init count span_gen) in
    return (List.concat spans))

let prop_random_pair_conserves =
  QCheck.Test.make ~name:"random trace pair conserves every partition"
    ~count:200
    (QCheck.make QCheck.Gen.(pair trace_gen trace_gen))
    (fun (base_events, cand_events) ->
      let base = Profile.of_events base_events in
      let cand = Profile.of_events cand_events in
      let report = Diff.of_reports ~base ~cand () in
      Diff.conserves report
      && List.for_all
           (fun (_, entries) ->
             let sum =
               List.fold_left
                 (fun sum (entry : Diff.entry) -> sum +. entry.e_delta)
                 0.0 entries
             in
             Float.abs (sum -. report.Diff.delta)
             <= 1e-9 *. Float.max 1.0 (Float.abs report.Diff.delta))
           (partitions report))

(* ------------------------------------------- truncated-line diagnostic *)

(* A capture cut mid-line by a crash must still yield the complete prefix,
   with the cut named by byte offset instead of a generic parse error. *)
let test_truncated_final_line () =
  let whole_path = "analyze.t/fixture.jsonl" in
  let whole_events, _ = Obs.Jsonl.load whole_path in
  let channel = open_in_bin whole_path in
  let bytes = really_input_string channel (in_channel_length channel) in
  close_in channel;
  let last_line_start = String.rindex (String.trim bytes) '\n' + 1 in
  let cut = last_line_start + 10 in
  let truncated_path = Filename.temp_file "truncated" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove truncated_path)
    (fun () ->
      let out = open_out_bin truncated_path in
      output_string out (String.sub bytes 0 cut);
      close_out out;
      let events, errors = Obs.Jsonl.load truncated_path in
      check_int "complete prefix survives"
        (List.length whole_events - 1)
        (List.length events);
      match errors with
      | [ message ] ->
        let contains needle haystack =
          let n = String.length needle and h = String.length haystack in
          let rec scan index =
            index + n <= h
            && (String.sub haystack index n = needle || scan (index + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic names the byte offset: %s" message)
          true
          (contains
             (* the offset is where the torn line begins — the byte to cut
                the file at to recover the clean prefix *)
             (Printf.sprintf "truncated final line at byte %d" last_line_start)
             message)
      | errors ->
        Alcotest.failf "expected exactly one diagnostic, got %d"
          (List.length errors))

let () =
  Alcotest.run "diff"
    [ ("attribution",
       [ Alcotest.test_case "hand-built deltas" `Quick test_hand_built;
         Alcotest.test_case "self-diff is zero" `Quick test_self_diff_is_zero;
         Alcotest.test_case "multi-holder equal split" `Quick
           test_multi_holder_split;
         Alcotest.test_case "deterministic ties" `Quick test_tie_breaking;
         Alcotest.test_case "pairing drift" `Quick test_pairing_drift ]);
      ("conservation",
       [ Alcotest.test_case "committed fixtures" `Quick
           test_fixture_conservation ]
       @ List.map QCheck_alcotest.to_alcotest [ prop_random_pair_conserves ]);
      ("jsonl",
       [ Alcotest.test_case "truncated final line" `Quick
           test_truncated_final_line ]) ]
