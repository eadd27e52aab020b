(* Tests for the trace certifier: the string-level mode algebra against
   the lock manager's own matrices, handcrafted schedules for each
   violation class (cycle, phase, concurrent grant, uncovered grant,
   escalation audit), QCheck properties over random schedules — the real
   lock table always certifies clean, injected corruptions are flagged
   and attributed to exactly the corrupted transactions — the
   conflict-frontier verdict against the all-pairs oracle, and the
   streaming JSONL reader. *)

module Event = Obs.Event
module Certify = Obs.Certify
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph
module Node_id = Colock.Node_id
module Protocol = Colock.Protocol
module Oid = Nf2.Oid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let at time kind = { Event.time; kind }

let grant ?(immediate = true) txn resource mode =
  Event.Lock_granted { txn; resource; mode; immediate; lu = None; holders = [] }

let release txn resource = Event.Lock_released { txn; resource; lu = None }
let begin_txn txn = Event.Txn_begin { txn }
let commit txn = Event.Txn_commit { txn }
let abort txn = Event.Txn_abort { txn; reason = "test" }

let violation_kind = function
  | Certify.Unserializable _ -> "cycle"
  | Certify.Phase_violation _ -> "phase"
  | Certify.Concurrent_conflict _ -> "concurrent"
  | Certify.Uncovered_grant _ -> "uncovered"
  | Certify.Escalation_violation _ -> "escalation"

let kinds certificate = List.map violation_kind certificate.Certify.violations

let violation_txns certificate =
  List.concat_map
    (function
      | Certify.Unserializable { cycle; _ } -> cycle
      | Certify.Phase_violation { txn; _ }
      | Certify.Concurrent_conflict { txn; _ }
      | Certify.Uncovered_grant { txn; _ }
      | Certify.Escalation_violation { txn; _ } ->
        [ txn ])
    certificate.Certify.violations
  |> List.sort_uniq Int.compare

(* ------------------------------------------------------- mode algebra *)

(* [Lock_mode.certify_modes] must agree pointwise with the certifier's
   built-in string algebra — the checks are only as strong as the
   matrices behind them. *)
let test_algebra_agreement () =
  let ours = Certify.default_modes and theirs = Mode.certify_modes in
  List.iter
    (fun a ->
      check_bool
        ("is_intention " ^ a)
        (ours.Certify.m_is_intention a)
        (theirs.Certify.m_is_intention a);
      check_string
        ("intention_for " ^ a)
        (ours.Certify.m_intention_for a)
        (theirs.Certify.m_intention_for a);
      List.iter
        (fun b ->
          check_bool
            (Printf.sprintf "compatible %s %s" a b)
            (ours.Certify.m_compatible a b)
            (theirs.Certify.m_compatible a b);
          check_string
            (Printf.sprintf "sup %s %s" a b)
            (ours.Certify.m_sup a b)
            (theirs.Certify.m_sup a b))
        ours.Certify.m_known)
    ours.Certify.m_known;
  (* unknown strings act as X on both sides *)
  check_bool "unknown conflicts" false (theirs.Certify.m_compatible "??" "S");
  check_string "unknown sups to X" "X" (ours.Certify.m_sup "??" "IS")

(* -------------------------------------------------- handcrafted cases *)

let test_clean_serial () =
  let events =
    [ at 0.0 (begin_txn 1); at 0.0 (begin_txn 2);
      at 1.0 (grant 1 "db1" "IX");
      at 1.0 (grant 1 "db1/a" "IX");
      at 2.0 (grant 1 "db1/a/x" "X");
      at 3.0 (commit 1);
      at 3.0 (release 1 "db1/a/x");
      at 3.0 (release 1 "db1/a");
      at 3.0 (release 1 "db1");
      at 4.0 (grant 2 "db1" "IS");
      at 4.0 (grant 2 "db1/a" "IS");
      at 5.0 (grant 2 "db1/a/x" "S");
      at 6.0 (commit 2);
      at 6.0 (release 2 "db1/a/x");
      at 6.0 (release 2 "db1/a");
      at 6.0 (release 2 "db1") ]
  in
  let certificate = Certify.of_events ~label:"clean" events in
  check_bool "certified" true (Certify.certified certificate);
  check_int "committed" 2 certificate.Certify.committed;
  let edges = Lazy.force certificate.Certify.graph_edges in
  check_int "one conflict edge" 1 (List.length edges);
  let edge = List.hd edges in
  check_int "edge from T1" 1 edge.Certify.e_from;
  check_int "edge to T2" 2 edge.Certify.e_to;
  check_string "edge witness" "db1/a/x" edge.Certify.e_resource

let test_cycle_detected () =
  let events =
    [ at 0.0 (begin_txn 1); at 0.0 (begin_txn 2);
      at 1.0 (grant 1 "r1" "X");
      at 2.0 (release 1 "r1");
      at 3.0 (grant 2 "r1" "X");
      at 4.0 (release 2 "r1");
      at 5.0 (grant 2 "r2" "X");
      at 6.0 (release 2 "r2");
      at 7.0 (grant 1 "r2" "X");
      at 8.0 (release 1 "r2");
      at 9.0 (commit 1); at 9.0 (commit 2) ]
  in
  let certificate = Certify.of_events events in
  check_bool "not certified" false (Certify.certified certificate);
  let cycle =
    List.find_map
      (function
        | Certify.Unserializable { cycle; _ } -> Some cycle
        | _ -> None)
      certificate.Certify.violations
  in
  (match cycle with
   | Some cycle ->
     check_int "minimal cycle" 2 (List.length cycle);
     check_bool "T1 on cycle" true (List.mem 1 cycle);
     check_bool "T2 on cycle" true (List.mem 2 cycle)
   | None -> Alcotest.fail "expected an unserializable violation");
  (* the fabricated cycle is only reachable by breaking 2PL too *)
  check_bool "phase violations surface" true
    (List.mem "phase" (kinds certificate))

let test_pure_phase_violation () =
  let events =
    [ at 0.0 (begin_txn 1);
      at 1.0 (grant 1 "r1" "X");
      at 2.0 (release 1 "r1");
      at 3.0 (grant 1 "r2" "X");
      at 4.0 (commit 1);
      at 4.0 (release 1 "r2") ]
  in
  let certificate = Certify.of_events events in
  (match certificate.Certify.violations with
   | [ Certify.Phase_violation { txn; released; acquire; _ } ] ->
     check_int "violating txn" 1 txn;
     check_string "released first" "r1" released;
     check_string "then acquired" "r2" acquire.Certify.a_resource
   | other ->
     Alcotest.failf "expected exactly one phase violation, got %d"
       (List.length other))

let test_uncovered_grant () =
  (* no ancestor at all *)
  let bare = Certify.of_events [ at 1.0 (grant 1 "db1/a/x" "X") ] in
  (match bare.Certify.violations with
   | [ Certify.Uncovered_grant { parent; parent_mode; _ } ] ->
     check_string "parent path" "db1/a" parent;
     check_bool "parent unheld" true (parent_mode = None)
   | _ -> Alcotest.fail "expected one uncovered grant");
  (* ancestor held, but too weak for the requested mode *)
  let weak =
    Certify.of_events
      [ at 1.0 (grant 1 "db1" "IS");
        at 1.0 (grant 1 "db1/a" "IS");
        at 2.0 (grant 1 "db1/a/x" "X") ]
  in
  (match weak.Certify.violations with
   | [ Certify.Uncovered_grant { parent_mode; resource; _ } ] ->
     check_string "weak grant flagged" "db1/a/x" resource;
     check_bool "parent held IS" true (parent_mode = Some "IS")
   | _ -> Alcotest.fail "expected one uncovered grant");
  (* a parent data mode covering the child outright is rule-3 implicit
     locking made explicit — legal without a separate intention *)
  let covered =
    Certify.of_events
      [ at 1.0 (grant 1 "db1" "IX");
        at 1.0 (grant 1 "db1/a" "X");
        at 2.0 (grant 1 "db1/a/x" "X") ]
  in
  check_bool "sup-covered grant is legal" true (Certify.certified covered)

let test_concurrent_conflict () =
  let events =
    [ at 1.0 (grant 1 "r1" "X");
      at 2.0 (grant 2 "r1" "X");
      at 3.0 (release 1 "r1"); at 3.0 (release 2 "r1");
      at 4.0 (commit 1); at 4.0 (commit 2) ]
  in
  let certificate = Certify.of_events events in
  match
    List.filter
      (function Certify.Concurrent_conflict _ -> true | _ -> false)
      certificate.Certify.violations
  with
  | [ Certify.Concurrent_conflict { txn; holder; resource; _ } ] ->
    check_int "granted txn" 2 txn;
    check_int "standing holder" 1 holder;
    check_string "on resource" "r1" resource
  | other ->
    Alcotest.failf "expected exactly one concurrent conflict, got %d"
      (List.length other)

let test_covered_release_is_not_shrinking () =
  (* releasing a child while a strict ancestor still holds a covering
     data mode is the escalation / rule-4' sharing pattern: the
     transaction lost nothing, so later grants stay legal *)
  let events =
    [ at 0.0 (begin_txn 1);
      at 1.0 (grant 1 "db1" "IX");
      at 1.0 (grant 1 "db1/a" "X");
      at 2.0 (grant 1 "db1/a/x" "X");
      at 3.0 (release 1 "db1/a/x");
      at 4.0 (grant 1 "db1/b" "X");
      at 5.0 (commit 1);
      at 5.0 (release 1 "db1/b");
      at 5.0 (release 1 "db1/a");
      at 5.0 (release 1 "db1") ]
  in
  let certificate = Certify.of_events events in
  check_bool "covered release keeps the phase open" true
    (Certify.certified certificate)

let test_aborted_attempt_excluded () =
  let events =
    [ at 0.0 (begin_txn 1);
      (* first attempt: blatantly non-2PL, then aborted *)
      at 1.0 (grant 1 "r1" "X");
      at 2.0 (release 1 "r1");
      at 3.0 (grant 1 "r2" "X");
      at 4.0 (release 1 "r2");
      at 4.0 (abort 1);
      (* restart under the same id (the simulator does not re-begin) *)
      at 5.0 (grant 1 "r1" "X");
      at 6.0 (commit 1);
      at 6.0 (release 1 "r1") ]
  in
  let certificate = Certify.of_events events in
  check_bool "certified" true (Certify.certified certificate);
  check_int "one aborted attempt" 1 certificate.Certify.aborted_attempts;
  check_int "one committed txn" 1 certificate.Certify.committed

let escalation_prefix =
  [ at 0.0 (begin_txn 1);
    at 1.0 (grant 1 "db1" "IX");
    at 1.0 (grant 1 "db1/a" "IX");
    at 2.0 (grant 1 "db1/a/x" "X");
    at 2.0 (grant 1 "db1/a/y" "X") ]

let test_escalation_legal () =
  let events =
    escalation_prefix
    @ [ at 3.0 (grant 1 "db1/a" "X");
        at 3.0 (release 1 "db1/a/x");
        at 3.0 (release 1 "db1/a/y");
        at 3.0
          (Event.Escalation
             { txn = 1; node = "db1/a"; mode = "X"; released_children = 2 });
        at 4.0 (commit 1);
        at 4.0 (release 1 "db1/a");
        at 4.0 (release 1 "db1") ]
  in
  check_bool "legal escalation certifies" true
    (Certify.certified (Certify.of_events events))

let test_escalation_mode_too_weak () =
  let events =
    escalation_prefix
    @ [ at 3.0 (grant 1 "db1/a" "S");
        at 3.0 (release 1 "db1/a/x");
        at 3.0 (release 1 "db1/a/y");
        at 3.0
          (Event.Escalation
             { txn = 1; node = "db1/a"; mode = "S"; released_children = 2 });
        at 4.0 (commit 1) ]
  in
  let certificate = Certify.of_events events in
  let escalations =
    List.filter
      (function Certify.Escalation_violation _ -> true | _ -> false)
      certificate.Certify.violations
  in
  (* S cannot absorb two X children: one audit failure per child *)
  check_int "both X children flagged" 2 (List.length escalations)

let test_escalation_overclaims_children () =
  let events =
    escalation_prefix
    @ [ at 3.0 (grant 1 "db1/a" "X");
        at 3.0 (release 1 "db1/a/x");
        at 3.0
          (Event.Escalation
             { txn = 1; node = "db1/a"; mode = "X"; released_children = 2 });
        at 4.0 (commit 1) ]
  in
  let certificate = Certify.of_events events in
  match certificate.Certify.violations with
  | [ Certify.Escalation_violation { detail; _ } ] ->
    check_string "mismatch reported"
      "claims 2 absorbed child(ren), trace shows 1" detail
  | _ -> Alcotest.fail "expected one escalation violation"

let convert txn resource from_mode to_mode =
  Event.Conversion { txn; resource; from_mode; to_mode; lu = None }

let deescalate txn node mode = Event.Deescalation { txn; node; mode }

let test_conversion_then_grant () =
  let converted =
    [ at 0.0 (begin_txn 1); at 0.0 (begin_txn 2);
      at 1.0 (grant 1 "r1" "S");
      at 2.0 (convert 1 "r1" "S" "X");
      at 2.0 (grant ~immediate:false 1 "r1" "X") ]
  in
  check_bool "a conversion and its grant certify" true
    (Certify.certified
       (Certify.of_events
          (converted @ [ at 3.0 (commit 1); at 3.0 (release 1 "r1") ])));
  let certificate =
    Certify.of_events
      (converted
      @ [ at 3.0 (grant 2 "r1" "S"); at 4.0 (commit 1); at 4.0 (commit 2) ])
  in
  match certificate.Certify.violations with
  | [ Certify.Concurrent_conflict { resource; txn; mode; holder; holder_mode; _ } ]
    ->
    check_string "on the converted resource" "r1" resource;
    check_int "the later grant" 2 txn;
    check_string "in S" "S" mode;
    check_int "against the converter" 1 holder;
    check_string "who holds X" "X" holder_mode
  | other ->
    Alcotest.failf "expected exactly one concurrent conflict, got %d"
      (List.length other)

let test_deescalation_ends_growth () =
  let certificate =
    Certify.of_events
      [ at 0.0 (begin_txn 1);
        at 1.0 (grant 1 "db1" "IX");
        at 1.0 (grant 1 "db1/a" "X");
        at 2.0 (deescalate 1 "db1/a" "IX");
        at 3.0 (grant 1 "db1/b" "X");
        at 4.0 (commit 1) ]
  in
  match certificate.Certify.violations with
  | [ Certify.Phase_violation { txn; released; released_seq; acquire } ] ->
    check_int "violating txn" 1 txn;
    check_string "the de-escalated node ends growth" "db1/a" released;
    check_int "at the de-escalation" 4 released_seq;
    check_string "then acquired" "db1/b" acquire.Certify.a_resource
  | other ->
    Alcotest.failf "expected exactly one phase violation, got %d"
      (List.length other)

(* Releases and de-escalations of what the transaction does not hold, some
   of it never granted to anyone, certify exactly as events the certifier
   ignores would in their place. *)
let test_stray_releases_change_nothing () =
  let schedule stray =
    [ at 0.0 (begin_txn 1); at 0.0 (begin_txn 2);
      at 1.0 (grant 1 "db1" "IX");
      at 1.0 (grant 1 "db1/a" "IX");
      at 1.0 (stray (release 1 "db1/b"));
      at 2.0 (grant 1 "db1/a/x" "X");
      at 2.0 (stray (release 2 "db1/a/x"));
      at 2.0 (stray (deescalate 1 "db1/c" "S"));
      at 2.0 (stray (deescalate 2 "db1/a" "IS"));
      at 3.0 (grant 1 "db1/a/y" "X");
      at 4.0 (commit 1);
      at 4.0 (release 1 "db1/a/y");
      at 4.0 (release 1 "db1/a/x");
      at 4.0 (release 1 "db1/a");
      at 4.0 (release 1 "db1");
      at 5.0 (grant 2 "db1" "IS");
      at 5.0 (grant 2 "db1/a" "IS");
      at 5.0 (grant 2 "db1/a/x" "S");
      at 5.0 (stray (release 2 "db1/zz/q"));
      at 6.0 (commit 2);
      at 6.0 (release 2 "db1/a/x");
      at 6.0 (release 2 "db1/a");
      at 6.0 (release 2 "db1") ]
  in
  let ignored = function
    | Event.Lock_released { txn; _ } | Event.Deescalation { txn; _ } ->
      Event.Sim_step { txn; step = 0 }
    | kind -> kind
  in
  let with_strays = Certify.of_events (schedule Fun.id) in
  check_bool "certified" true (Certify.certified with_strays);
  check_string "the same certificate"
    (Obs.Json.to_string (Certify.to_json (Certify.of_events (schedule ignored))))
    (Obs.Json.to_string (Certify.to_json with_strays))

let test_escalation_of_unheld_node () =
  let certificate =
    Certify.of_events
      [ at 0.0 (begin_txn 1);
        at 1.0 (grant 1 "db1" "IX");
        at 2.0
          (Event.Escalation
             { txn = 1; node = "db1/a"; mode = "X"; released_children = 0 }) ]
  in
  match certificate.Certify.violations with
  | [ Certify.Escalation_violation { node; detail; _ } ] ->
    check_string "on the node" "db1/a" node;
    check_string "reported" "escalated node is not held" detail
  | other ->
    Alcotest.failf "expected exactly one escalation violation, got %d"
      (List.length other)

let test_trace_splits_runs () =
  let run label body =
    at 0.0 (Event.Run_meta { label }) :: body
  in
  let events =
    run "first" [ at 1.0 (grant 1 "r1" "X"); at 2.0 (commit 1) ]
    @ run "second" [ at 1.0 (grant 2 "r1" "X"); at 2.0 (commit 2) ]
  in
  match Trace_runs.with_trace events Trace_runs.certificates with
  | [ first; second ] ->
    check_bool "first label" true (first.Certify.label = Some "first");
    check_bool "second label" true (second.Certify.label = Some "second");
    check_int "first graph" 1 (List.length first.Certify.graph_txns);
    check_int "second graph" 1 (List.length second.Certify.graph_txns)
  | certificates ->
    Alcotest.failf "expected 2 certificates, got %d"
      (List.length certificates)

(* ------------------------------------------- the real stack as oracle *)

let figure1 = lazy (Graph.build (Workload.Figure1.database ~c_objects:6 ()))

let graph_nodes graph =
  let array = Array.of_list (Graph.fold (fun node accu -> node :: accu) graph []) in
  Array.sort (fun a b -> Node_id.compare (Graph.id graph a) (Graph.id graph b)) array;
  array

(* Drive random interleaved transactions through the real protocol/lock
   table with a memory sink attached, then certify the emitted trace:
   whatever the real stack produced must pass. [~wait:false] keeps the
   harness sequential-step (no scheduler needed); blocked requests are
   simply skipped, which is itself a legal schedule. *)
let run_real_schedule seed =
  let graph = Lazy.force figure1 in
  let sink, events = Obs.Sink.memory () in
  let table = Table.create ~obs:sink () in
  let protocol = Protocol.create graph table in
  let nodes = graph_nodes graph in
  let rng = Random.State.make [| seed |] in
  let txns = 2 + Random.State.int rng 3 in
  let modes = [| Mode.IS; Mode.IX; Mode.S; Mode.X |] in
  for txn = 1 to txns do
    Obs.Sink.emit sink (Event.Txn_begin { txn })
  done;
  for _round = 1 to 3 do
    for txn = 1 to txns do
      let node = nodes.(Random.State.int rng (Array.length nodes)) in
      let mode = modes.(Random.State.int rng (Array.length modes)) in
      ignore
        (Protocol.acquire protocol ~wait:false ~txn node mode
          : Protocol.outcome)
    done
  done;
  for txn = 1 to txns do
    Obs.Sink.emit sink (Event.Txn_commit { txn });
    ignore (Protocol.end_of_transaction protocol ~txn : Table.grant list)
  done;
  Certify.of_events ~modes:Mode.certify_modes (events ())

let prop_real_stack_certifies =
  QCheck.Test.make ~count:25 ~name:"real protocol schedules certify clean"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let certificate = run_real_schedule seed in
      if not (Certify.certified certificate) then
        QCheck.Test.fail_reportf "violations: %s"
          (String.concat "; "
             (List.map
                (Format.asprintf "%a" Certify.pp_violation)
                certificate.Certify.violations));
      certificate.Certify.committed > 0)

(* An escalation performed by the real mechanism must audit clean. *)
let test_real_escalation_certifies () =
  let graph = Lazy.force figure1 in
  let sink, events = Obs.Sink.memory () in
  let table = Table.create ~obs:sink () in
  let protocol = Protocol.create graph table in
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  let c1 =
    Option.get (Graph.object_node graph (Oid.make ~relation:"cells" ~key:"c1"))
  in
  let holu = Option.get (Graph.member_node graph c1 "c_objects") in
  let members = Graph.children graph holu in
  List.iter
    (fun member ->
      match Protocol.acquire protocol ~txn:1 member Mode.S with
      | Protocol.Acquired _ -> ()
      | Protocol.Blocked _ -> Alcotest.fail "unexpected block")
    members;
  (match
     Colock.Escalation.maybe_escalate protocol ~txn:1 ~threshold:4 ~parent:holu
   with
   | Colock.Escalation.Escalated _ -> ()
   | _ -> Alcotest.fail "escalation expected");
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  ignore (Protocol.end_of_transaction protocol ~txn:1 : Table.grant list);
  let certificate =
    Certify.of_events ~modes:Mode.certify_modes (events ())
  in
  if not (Certify.certified certificate) then
    Alcotest.failf "escalated run not certified: %s"
      (String.concat "; "
         (List.map
            (Format.asprintf "%a" Certify.pp_violation)
            certificate.Certify.violations))

(* ------------------------------------------- corrupted random schedules *)

let resources = [| "r0"; "r1"; "r2"; "r3" |]

(* A serial, two-phase schedule over root resources: clean by
   construction. Each transaction touches >= 2 distinct resources. *)
let serial_blocks rng txns =
  List.init txns (fun index ->
      let txn = index + 1 in
      let count = 2 + Random.State.int rng (Array.length resources - 1) in
      let picks =
        let all = Array.copy resources in
        for i = Array.length all - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = all.(i) in
          all.(i) <- all.(j);
          all.(j) <- tmp
        done;
        Array.to_list (Array.sub all 0 (min count (Array.length all)))
      in
      (txn, picks))

let serial_events blocks =
  let time = ref 0.0 in
  let tick kind =
    time := !time +. 1.0;
    at !time kind
  in
  List.concat_map
    (fun (txn, picks) ->
      (tick (begin_txn txn)
       :: List.map (fun resource -> tick (grant txn resource "X")) picks)
      @ List.map (fun resource -> tick (release txn resource)) picks
      @ [ tick (commit txn) ])
    blocks

let prop_serial_certifies =
  QCheck.Test.make ~count:50 ~name:"serial 2PL schedules certify clean"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let blocks = serial_blocks rng (2 + Random.State.int rng 3) in
      Certify.certified (Certify.of_events (serial_events blocks)))

(* Appending a fabricated criss-cross between two fresh transactions
   injects exactly one conflict cycle; the certifier must report it and
   blame only the corrupted transactions. *)
let prop_injected_cycle_flagged =
  QCheck.Test.make ~count:50 ~name:"injected grant-order cycle is flagged"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let blocks = serial_blocks rng (1 + Random.State.int rng 3) in
      let t_a = List.length blocks + 1 and t_b = List.length blocks + 2 in
      let cross =
        [ at 100.0 (begin_txn t_a); at 100.0 (begin_txn t_b);
          at 101.0 (grant t_a "ca" "X");
          at 102.0 (release t_a "ca");
          at 103.0 (grant t_b "ca" "X");
          at 104.0 (release t_b "ca");
          at 105.0 (grant t_b "cb" "X");
          at 106.0 (release t_b "cb");
          at 107.0 (grant t_a "cb" "X");
          at 108.0 (release t_a "cb");
          at 109.0 (commit t_a); at 109.0 (commit t_b) ]
      in
      let certificate =
        Certify.of_events (serial_events blocks @ cross)
      in
      let cycle =
        List.find_map
          (function
            | Certify.Unserializable { cycle; _ } -> Some cycle
            | _ -> None)
          certificate.Certify.violations
      in
      match cycle with
      | Some cycle ->
        List.sort Int.compare cycle = [ t_a; t_b ]
        && List.for_all
             (fun txn -> txn = t_a || txn = t_b)
             (violation_txns certificate)
      | None -> false)

(* Moving one release ahead of a later grant inside a single serial
   block breaks 2PL without creating any cycle; only that transaction
   may be blamed, and only with phase violations. *)
let prop_injected_phase_flagged =
  QCheck.Test.make ~count:50 ~name:"injected post-release acquire is flagged"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let blocks = serial_blocks rng (2 + Random.State.int rng 3) in
      let victim = 1 + Random.State.int rng (List.length blocks) in
      let time = ref 0.0 in
      let tick kind =
        time := !time +. 1.0;
        at !time kind
      in
      let events =
        List.concat_map
          (fun (txn, picks) ->
            if txn <> victim then
              (tick (begin_txn txn)
               :: List.map (fun r -> tick (grant txn r "X")) picks)
              @ List.map (fun r -> tick (release txn r)) picks
              @ [ tick (commit txn) ]
            else
              (* grant head, release head, then keep growing: non-2PL *)
              let head = List.hd picks and tail = List.tl picks in
              [ tick (begin_txn txn);
                tick (grant txn head "X");
                tick (release txn head) ]
              @ List.map (fun r -> tick (grant txn r "X")) tail
              @ List.map (fun r -> tick (release txn r)) tail
              @ [ tick (commit txn) ])
          blocks
      in
      let certificate = Certify.of_events events in
      kinds certificate <> []
      && List.for_all (fun kind -> kind = "phase") (kinds certificate)
      && violation_txns certificate = [ victim ])

(* ---------------------------------------- frontier verdict vs all pairs *)

(* Two resources behind one edge: the witness is the pair with the
   smallest (first, second) grant seqs, whatever order the resource names
   hash in or the later transaction takes them in. *)
let test_witness_is_earliest_pair () =
  let block txn time resources =
    List.map (fun resource -> at time (grant txn resource "X")) resources
    @ at (time +. 1.0) (commit txn)
      :: List.map (fun resource -> at (time +. 1.0) (release txn resource))
           resources
  in
  List.iter
    (fun (later, second) ->
      let certificate =
        Certify.of_events (block 1 1.0 [ "r2"; "r1" ] @ block 2 3.0 later)
      in
      match Lazy.force certificate.Certify.graph_edges with
      | [ edge ] ->
        check_int "both conflicting pairs counted" 2 edge.Certify.e_count;
        check_string "witness resource" "r2" edge.Certify.e_resource;
        check_int "witness first" 1 edge.Certify.e_first.Certify.a_granted_seq;
        check_int "witness second" second
          edge.Certify.e_second.Certify.a_granted_seq
      | edges -> Alcotest.failf "expected one edge, got %d" (List.length edges))
    [ ([ "r2"; "r1" ], 6); ([ "r1"; "r2" ], 7) ]

let counterexample certificate =
  List.find_map
    (function
      | Certify.Unserializable { cycle; edges } -> Some (cycle, edges)
      | _ -> None)
    certificate.Certify.violations

(* S does not dominate IX (a later S conflicts with IX but not with S),
   so T2's S must leave T1's IX in r1's frontier: T3's S conflicts with
   it, and that edge closes the only cycle, T1 -> T3 -> T1. *)
let test_undominated_entry_stays () =
  let events =
    [ at 1.0 (grant 1 "r1" "IX");
      at 2.0 (grant 2 "r1" "S");
      at 3.0 (grant 3 "r1" "S");
      at 4.0 (grant 3 "r2" "X");
      at 5.0 (release 3 "r2");
      at 6.0 (grant 1 "r2" "X");
      at 7.0 (commit 1); at 7.0 (commit 2); at 7.0 (commit 3) ]
  in
  match counterexample (Certify.of_events events) with
  | Some (cycle, edges) ->
    Alcotest.(check (list int)) "cycle" [ 1; 3 ] cycle;
    Alcotest.(check (list string)) "via" [ "r1"; "r2" ]
      (List.map (fun edge -> edge.Certify.e_resource) edges)
  | None -> Alcotest.fail "expected the T1 -> T3 -> T1 cycle"

(* The oracle for the certifier's cycle-gated search: a BFS from every
   transaction of the full graph, shortest cycle back to the start, ties
   to the smallest start. *)
module Int_map = Map.Make (Int)

let oracle_minimal_cycle (edges : Certify.edge list) =
  let adjacency =
    List.fold_left
      (fun map edge ->
        Int_map.update edge.Certify.e_from
          (function
            | Some targets -> Some (edge.Certify.e_to :: targets)
            | None -> Some [ edge.Certify.e_to ])
          map)
      Int_map.empty edges
  in
  let shortest_from start =
    let parents = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add start queue;
    Hashtbl.replace parents start start;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      List.iter
        (fun next ->
          if !found = None then
            if next = start then begin
              let rec back node accu =
                if node = start then node :: accu
                else back (Hashtbl.find parents node) (node :: accu)
              in
              found := Some (back node [])
            end
            else if not (Hashtbl.mem parents next) then begin
              Hashtbl.replace parents next node;
              Queue.add next queue
            end)
        (List.rev (Option.value ~default:[] (Int_map.find_opt node adjacency)))
    done;
    !found
  in
  Int_map.fold
    (fun start _targets best ->
      match shortest_from start with
      | None -> best
      | Some cycle -> (
        match best with
        | Some existing when List.compare_lengths existing cycle <= 0 -> best
        | _ -> Some cycle))
    adjacency None

let oracle_counterexample edges =
  Option.map
    (fun cycle ->
      let edge_between source target =
        List.find
          (fun edge ->
            edge.Certify.e_from = source && edge.Certify.e_to = target)
          edges
      in
      let rec along = function
        | first :: (second :: _ as rest) ->
          edge_between first second :: along rest
        | [ last ] -> [ edge_between last (List.hd cycle) ]
        | [] -> []
      in
      (cycle, along cycle))
    (oracle_minimal_cycle edges)

let has_cycle (edges : Certify.edge list) =
  let state = Hashtbl.create 8 in
  let rec visit txn =
    match Hashtbl.find_opt state txn with
    | Some `Open -> true
    | Some `Done -> false
    | None ->
      Hashtbl.replace state txn `Open;
      let found =
        List.exists
          (fun edge -> edge.Certify.e_from = txn && visit edge.Certify.e_to)
          edges
      in
      Hashtbl.replace state txn `Done;
      found
  in
  List.exists (fun edge -> visit edge.Certify.e_from) edges

let schedule_modes = [| "IS"; "IX"; "S"; "SIX"; "X" |]

(* 2-6 transactions on 1-4 flat resources. Each runs one or two attempts
   of 3-6 steps: a grant in a random mode (re-grants of a held resource
   included) or, one time in three once something is held, a release, so
   most attempts are not two-phase. The last attempt commits nine times in
   ten, every other attempt aborts, and each ends by releasing what it
   still holds. The programs are interleaved at random, which makes
   conflict cycles common. *)
let random_schedule rng =
  let txns = 2 + Random.State.int rng 5 in
  let resources = 1 + Random.State.int rng 4 in
  let program txn =
    let steps = ref [] in
    let emit kind = steps := kind :: !steps in
    let attempts = 1 + Random.State.int rng 2 in
    for attempt = 1 to attempts do
      let held = ref [] in
      for _step = 1 to 3 + Random.State.int rng 4 do
        match !held with
        | resource :: rest when Random.State.int rng 3 = 0 ->
          emit (release txn resource);
          held := rest
        | _ ->
          let resource =
            Printf.sprintf "r%d" (Random.State.int rng resources)
          in
          let mode =
            schedule_modes.(Random.State.int rng (Array.length schedule_modes))
          in
          emit (grant txn resource mode);
          if not (List.mem resource !held) then held := resource :: !held
      done;
      emit
        (if attempt = attempts && Random.State.int rng 10 > 0 then commit txn
         else abort txn);
      List.iter (fun resource -> emit (release txn resource)) !held
    done;
    List.rev !steps
  in
  let programs = Array.init txns (fun index -> program (index + 1)) in
  let events = ref [] and time = ref 0.0 in
  let rec interleave () =
    match
      List.filter
        (fun index -> programs.(index) <> [])
        (List.init txns Fun.id)
    with
    | [] -> List.rev !events
    | pending ->
      let index =
        List.nth pending (Random.State.int rng (List.length pending))
      in
      (match programs.(index) with
       | kind :: rest ->
         time := !time +. 1.0;
         events := at !time kind :: !events;
         programs.(index) <- rest
       | [] -> ());
      interleave ()
  in
  interleave ()

(* The frontier verdict against the all-pairs oracle, under both mode
   algebras: [Unserializable] exactly when the forced graph has a cycle,
   with the oracle's cycle and edges, and the graph left unbuilt by
   [finish] exactly when there is none. *)
let test_frontier_matches_oracle () =
  let checks = ref 0 and cyclic = ref 0 in
  let agrees events modes =
    let certificate = Certify.of_events ~modes events in
    let built = Lazy.is_val certificate.Certify.graph_edges in
    let edges = Lazy.force certificate.Certify.graph_edges in
    let cycle = has_cycle edges in
    incr checks;
    if cycle then incr cyclic;
    built = cycle && counterexample certificate = oracle_counterexample edges
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2026 |])
    (QCheck.Test.make ~count:2000 ~name:"frontier verdict = all-pairs oracle"
       QCheck.(make Gen.(int_bound 1_000_000))
       (fun seed ->
         let events = random_schedule (Random.State.make [| seed |]) in
         agrees events Certify.default_modes
         && agrees events Mode.certify_modes));
  Printf.printf "frontier vs oracle: %d of %d checks cyclic (%.0f%%)\n" !cyclic
    !checks
    (100.0 *. float_of_int !cyclic /. float_of_int !checks);
  check_bool "cycles are common" true (!cyclic * 4 >= !checks);
  check_bool "acyclic runs are common" true (!cyclic * 4 <= 3 * !checks)

(* A serial run of 2000 committed transactions, each taking X or S on 2-4
   of 8 resources: the all-pairs graph and a BFS per transaction are
   quadratic and cubic here, the frontier verdict is linear, and an
   acyclic run never builds the pair graph. *)
let test_verdict_scales () =
  let rng = Random.State.make [| 8 |] in
  let certifier = Certify.create () in
  let time = ref 0.0 in
  let emit kind =
    time := !time +. 1.0;
    Certify.handle certifier (at !time kind)
  in
  for txn = 1 to 2000 do
    let first = Random.State.int rng 8 in
    let picks =
      List.init (2 + Random.State.int rng 3) (fun offset ->
          Printf.sprintf "s%d" ((first + offset) mod 8))
    in
    List.iter
      (fun resource ->
        emit (grant txn resource (if Random.State.bool rng then "X" else "S")))
      picks;
    emit (commit txn);
    List.iter (fun resource -> emit (release txn resource)) picks
  done;
  let started = Unix.gettimeofday () in
  let certificate = Certify.finish certifier in
  let certified = Certify.certified certificate in
  let seconds = Unix.gettimeofday () -. started in
  check_bool "certified" true certified;
  check_int "committed" 2000 certificate.Certify.committed;
  check_bool "pair graph not built" false
    (Lazy.is_val certificate.Certify.graph_edges);
  if seconds >= 1.0 then
    Alcotest.failf "finish + certified took %.3f s on 2000 transactions"
      seconds

(* ------------------------------------------------- streaming JSONL *)

let test_jsonl_iter_streams () =
  let path = Filename.temp_file "certify_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let channel = open_out path in
      Obs.Jsonl.write_events channel
        [ at 1.0 (grant 1 "r1" "X"); at 2.0 (commit 1) ];
      output_string channel "not json at all\n";
      Obs.Jsonl.write_events channel [ at 3.0 (release 1 "r1") ];
      close_out channel;
      let events, errors = Obs.Jsonl.load path in
      check_int "decoded around the bad line" 3 (List.length events);
      (match errors with
       | [ message ] ->
         check_bool "diagnostic carries the line number" true
           (String.length message >= 7 && String.sub message 0 7 = "line 3:")
       | _ -> Alcotest.fail "expected exactly one diagnostic");
      (* the streaming form sees exactly what the batch form saw *)
      let streamed = ref 0 and diagnostics = ref 0 in
      Obs.Jsonl.with_file path (fun channel ->
          Obs.Jsonl.iter
            ~on_error:(fun _ -> incr diagnostics)
            channel
            (fun _ -> incr streamed));
      check_int "same events" (List.length events) !streamed;
      check_int "same diagnostics" 1 !diagnostics)

(* ------------------------------------------------------ resource codec *)

(* Steps drawn from the bytes the codec treats specially, so separators at
   either end of a step, doubled separators, escape bytes and empty steps
   all occur. *)
let step_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; '/'; '\\'; '.' ]) (int_bound 4))

let prop_codec_round_trip =
  QCheck.Test.make ~count:2000 ~name:"resource codec round-trips"
    QCheck.(
      make
        ~print:(fun steps -> String.concat " | " (List.map String.escaped steps))
        Gen.(list_size (int_range 1 5) step_gen))
    (fun steps ->
      let name = Obs.Resource.render steps in
      let id = Option.get (Node_id.of_steps steps) in
      let parent_steps = List.rev (List.tl (List.rev steps)) in
      Obs.Resource.steps name = steps
      && Obs.Resource.fold_steps (fun count _step -> count + 1) 0 name
         = List.length steps
      && String.equal (Node_id.to_resource id) name
      && Obs.Resource.parent name
         = (match parent_steps with
            | [] -> None
            | _ :: _ -> Some (Obs.Resource.render parent_steps))
      && (parent_steps = []
         || Obs.Resource.is_strict_descendant
              ~ancestor:(Obs.Resource.render parent_steps) name))

let test_codec_ambiguities () =
  let render = Obs.Resource.render in
  check_bool "leading/trailing slash" false
    (String.equal (render [ "a/"; "b" ]) (render [ "a"; "/b" ]));
  check_bool "empty step" false
    (String.equal (render [ "a"; ""; "b" ]) (render [ "a/b" ]));
  check_string "inner slash renders as before" "db1/effectors//e1"
    (render [ "db1"; "effectors/e1" ]);
  check_bool "not below a sibling step" false
    (Obs.Resource.is_strict_descendant ~ancestor:"a" (render [ "a/b" ]))

(* A set member whose step starts with '/': the certifier finds its parent
   and the flamegraph splits its path at the right separators. *)
let test_slash_step_trace () =
  let db = Nf2.Database.create "db" in
  let docs =
    Nf2.Schema.relation ~name:"docs" ~segment:"seg" ~key:"doc_id"
      [ Nf2.Schema.field "doc_id" (Nf2.Schema.Atomic Nf2.Schema.Str);
        Nf2.Schema.field "tags"
          (Nf2.Schema.Set (Nf2.Schema.Atomic Nf2.Schema.Str)) ]
  in
  ignore (Result.get_ok (Nf2.Database.create_relation db docs));
  ignore
    (Result.get_ok
       (Nf2.Database.insert db "docs"
          (Nf2.Value.Tuple
             [ ("doc_id", Nf2.Value.Str "d1");
               ("tags", Nf2.Value.Set [ Nf2.Value.Str "/usr"; Nf2.Value.Str "etc" ]) ])));
  let graph = Graph.build db in
  let usr =
    Graph.node_exn graph
      (Option.get (Node_id.of_steps [ "db"; "seg"; "docs"; "d1"; "tags"; "/usr" ]))
  in
  let clock = ref 0.0 in
  let events = ref [] in
  let certifier = Certify.create ~modes:Mode.certify_modes () in
  let sink =
    Obs.Sink.create ~clock:(fun () -> !clock)
      [ Certify.handle certifier; (fun event -> events := event :: !events) ]
  in
  let protocol = Protocol.create graph (Table.create ~obs:sink ()) in
  let finish txn =
    Obs.Sink.emit sink (Event.Txn_commit { txn });
    ignore (Protocol.end_of_transaction protocol ~txn : Table.grant list)
  in
  Obs.Sink.emit sink (begin_txn 1);
  Obs.Sink.emit sink (begin_txn 2);
  (match Protocol.acquire protocol ~txn:1 usr Mode.S with
   | Protocol.Acquired _ -> ()
   | Protocol.Blocked _ -> Alcotest.fail "T1 should be granted");
  (match Protocol.acquire protocol ~txn:2 usr Mode.X with
   | Protocol.Blocked _ -> ()
   | Protocol.Acquired _ -> Alcotest.fail "T2 should wait");
  clock := 5.0;
  finish 1;
  finish 2;
  let certificate = Certify.finish certifier in
  if not (Certify.certified certificate) then
    Alcotest.failf "not certified: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Certify.pp_violation)
            certificate.Certify.violations));
  match
    List.map Obs.Flame.of_report
      (Trace_runs.profiles_of_events (List.rev !events))
  with
  | [ flame ] ->
    Alcotest.(check (list (list string))) "frames"
      [ [ "db"; "seg"; "docs"; "d1"; "tags"; "/usr"; "mode:X" ] ]
      (List.map fst (Obs.Flame.stacks flame))
  | flames -> Alcotest.failf "%d flames" (List.length flames)

let () =
  Alcotest.run "certify"
    [ ( "algebra",
        [ Alcotest.test_case "matrices agree" `Quick test_algebra_agreement ]
      );
      ( "schedules",
        [ Alcotest.test_case "clean serial" `Quick test_clean_serial;
          Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
          Alcotest.test_case "pure phase violation" `Quick
            test_pure_phase_violation;
          Alcotest.test_case "uncovered grant" `Quick test_uncovered_grant;
          Alcotest.test_case "concurrent conflict" `Quick
            test_concurrent_conflict;
          Alcotest.test_case "covered release" `Quick
            test_covered_release_is_not_shrinking;
          Alcotest.test_case "aborted attempt excluded" `Quick
            test_aborted_attempt_excluded;
          Alcotest.test_case "conversion then its grant" `Quick
            test_conversion_then_grant;
          Alcotest.test_case "de-escalation ends growth" `Quick
            test_deescalation_ends_growth;
          Alcotest.test_case "stray releases change nothing" `Quick
            test_stray_releases_change_nothing;
          Alcotest.test_case "trace splits into runs" `Quick
            test_trace_splits_runs ] );
      ( "frontier",
        [ Alcotest.test_case "earliest pair is the witness" `Quick
            test_witness_is_earliest_pair;
          Alcotest.test_case "undominated entry stays" `Quick
            test_undominated_entry_stays;
          Alcotest.test_case "verdict matches all-pairs oracle" `Quick
            test_frontier_matches_oracle;
          Alcotest.test_case "verdict scales, graph stays lazy" `Quick
            test_verdict_scales ] );
      ( "escalation",
        [ Alcotest.test_case "legal escalation" `Quick test_escalation_legal;
          Alcotest.test_case "mode too weak" `Quick
            test_escalation_mode_too_weak;
          Alcotest.test_case "overclaimed children" `Quick
            test_escalation_overclaims_children;
          Alcotest.test_case "unheld node" `Quick
            test_escalation_of_unheld_node;
          Alcotest.test_case "real escalation certifies" `Quick
            test_real_escalation_certifies ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_real_stack_certifies;
            prop_serial_certifies;
            prop_injected_cycle_flagged;
            prop_injected_phase_flagged ] );
      ( "jsonl",
        [ Alcotest.test_case "streaming reader" `Quick
            test_jsonl_iter_streams ] );
      ( "resource codec",
        [ QCheck_alcotest.to_alcotest prop_codec_round_trip;
          Alcotest.test_case "ambiguities" `Quick test_codec_ambiguities;
          Alcotest.test_case "slash step certifies and folds" `Quick
            test_slash_step_trace ] ) ]
