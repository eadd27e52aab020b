(* Tests for causal blame attribution: segment splitting at blocker-set
   changes, exact conservation (shares of a wait sum to its duration, so
   every partition of the blame report equals Profile's total blocked
   time), the queue pseudo-blocker, and the same invariants replayed over
   the committed JSONL fixtures (which predate holder annotations and so
   exercise the blockers-list fallback). *)

module Event = Obs.Event
module Blame = Obs.Blame
module Profile = Obs.Profile

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let at time kind = { Event.time; kind }

let holder ?(mode = "S") txn = { Event.h_txn = txn; h_mode = mode; h_lu = None }

let wait ?(blockers = []) ?(holders = []) txn resource mode =
  Event.Lock_waited { txn; resource; mode; blockers; lu = None; holders }

let grant ?(immediate = false) txn resource mode =
  Event.Lock_granted
    { txn; resource; mode; immediate; lu = None; holders = [] }

let release txn resource =
  Event.Lock_released { txn; resource; lu = None }

let share_of agent wait =
  List.find (fun { Blame.sh_agent; _ } -> sh_agent = agent) wait.Blame.w_shares

(* T1 waits [10..30] on r, blocked by T2 holding S; T2 releases at 20, so
   the second half of the wait is the queue's fault. *)
let test_release_splits_blame () =
  let report =
    Blame.of_events
      [ at 0.0 (grant ~immediate:true 2 "r" "S");
        at 10.0 (wait ~blockers:[ 2 ] ~holders:[ holder 2 ] 1 "r" "X");
        at 20.0 (release 2 "r");
        at 30.0 (grant 1 "r" "X") ]
  in
  check_float "total blocked" 20.0 report.Blame.total_blocked;
  check_float "total blamed" 20.0 report.Blame.total_blamed;
  check_int "one wait" 1 report.Blame.wait_count;
  let wait = List.hd report.Blame.waits in
  check_int "two shares" 2 (List.length wait.Blame.w_shares);
  check_float "T2 charged while holding" 10.0
    (share_of (Blame.Txn 2) wait).Blame.sh_blame;
  Alcotest.(check (option string))
    "T2's held mode recorded" (Some "S")
    (share_of (Blame.Txn 2) wait).Blame.sh_mode;
  check_float "the queue owns the rest" 10.0
    (share_of Blame.Queue wait).Blame.sh_blame;
  let caused txn =
    (List.find (fun { Blame.x_txn; _ } -> x_txn = txn) report.Blame.txns)
      .Blame.x_caused
  in
  check_float "T2 caused 10" 10.0 (caused 2);
  check_float "T1 caused nothing" 0.0 (caused 1)

(* Three concurrent holders split a 10-tick wait: 10/3 each does not exist
   in floats, so the residual folds into the largest share and the sum
   stays exactly 10. *)
let test_equal_split_is_conservative () =
  let report =
    Blame.of_events
      [ at 0.0
          (wait ~blockers:[ 2; 3; 4 ]
             ~holders:[ holder 2; holder 3; holder 4 ]
             1 "r" "X");
        at 10.0 (grant 1 "r" "X") ]
  in
  let wait = List.hd report.Blame.waits in
  check_int "three shares" 3 (List.length wait.Blame.w_shares);
  let sum =
    List.fold_left
      (fun acc { Blame.sh_blame; _ } -> acc +. sh_blame)
      0.0 wait.Blame.w_shares
  in
  Alcotest.(check (float 0.0)) "shares sum exactly to the duration" 10.0 sum;
  check_float "report conserves" report.Blame.total_blocked
    report.Blame.total_blamed

(* A re-emitted Lock_waited reports a fresh granted group: the old segment
   is flushed against the old holders, the rest against the new. *)
let test_rewait_swaps_blockers () =
  let report =
    Blame.of_events
      [ at 10.0 (wait ~blockers:[ 2 ] ~holders:[ holder 2 ] 1 "r" "X");
        at 20.0 (wait ~blockers:[ 3 ] ~holders:[ holder ~mode:"X" 3 ] 1 "r" "X");
        at 30.0 (grant 1 "r" "X") ]
  in
  check_int "still one wait" 1 report.Blame.wait_count;
  let wait = List.hd report.Blame.waits in
  check_float "first holder charged its segment" 10.0
    (share_of (Blame.Txn 2) wait).Blame.sh_blame;
  check_float "second holder charged the rest" 10.0
    (share_of (Blame.Txn 3) wait).Blame.sh_blame

let test_aborted_and_unfinished_waits () =
  let report =
    Blame.of_events
      [ at 0.0 (wait ~blockers:[ 2 ] ~holders:[ holder 2 ] 1 "r" "X");
        at 40.0 (Event.Victim_aborted { txn = 1; restarts = 0 });
        at 40.0 (Event.Txn_abort { txn = 1; reason = "deadlock_victim" });
        at 40.0 (wait ~blockers:[ 2 ] ~holders:[ holder 2 ] 3 "r" "S");
        at 50.0 (Event.Txn_commit { txn = 2 }) ]
  in
  check_float "aborted wait charged in full" 50.0 report.Blame.total_blocked;
  check_float "and blamed in full" 50.0 report.Blame.total_blamed;
  let wait_of txn =
    List.find (fun w -> w.Blame.w_txn = txn) report.Blame.waits
  in
  Alcotest.(check bool)
    "victim's wait tagged" true
    ((wait_of 1).Blame.w_outcome = Blame.Aborted "deadlock");
  Alcotest.(check bool)
    "open wait tagged unfinished" true
    ((wait_of 3).Blame.w_outcome = Blame.Unfinished)

(* ----------------------------------------------- fixture conservation *)

(* The committed cram fixtures predate holder annotations, so this also
   pins the blockers-list fallback: blame still conserves exactly against
   what Profile measures on the very same stream. *)
let assert_conserves path =
  let (_ : Obs.Event.t list), errors = Obs.Jsonl.load path in
  Alcotest.(check (list string)) (path ^ " decodes") [] errors;
  let blames = Trace_runs.blames path in
  let profiles = Trace_runs.profiles path in
  check_int
    (path ^ ": same run split")
    (List.length profiles) (List.length blames);
  List.iter2
    (fun (blame : Blame.report) (profile : Profile.report) ->
      check_float
        (path ^ ": blame total = profile total")
        profile.Profile.total_blocked blame.Blame.total_blocked;
      Alcotest.(check (float 1e-6))
        (path ^ ": blamed = blocked")
        blame.Blame.total_blocked blame.Blame.total_blamed;
      let blocker_sum =
        List.fold_left
          (fun acc { Blame.k_blame; _ } -> acc +. k_blame)
          0.0 blame.Blame.blockers
      in
      Alcotest.(check (float 1e-6))
        (path ^ ": per-blocker blame partitions the total")
        blame.Blame.total_blamed blocker_sum;
      let txn_sum =
        List.fold_left
          (fun acc { Blame.x_blocked; _ } -> acc +. x_blocked)
          0.0 blame.Blame.txns
      in
      Alcotest.(check (float 1e-6))
        (path ^ ": per-txn blocked partitions the total")
        blame.Blame.total_blocked txn_sum;
      List.iter
        (fun wait ->
          let share_sum =
            List.fold_left
              (fun acc { Blame.sh_blame; _ } -> acc +. sh_blame)
              0.0 wait.Blame.w_shares
          in
          Alcotest.(check (float 1e-9))
            (path ^ ": wait shares sum to its duration")
            (Blame.duration wait) share_sum)
        blame.Blame.waits)
    blames profiles

let test_fixture_conservation () =
  assert_conserves "analyze.t/fixture.jsonl";
  assert_conserves "top.t/fixture.jsonl"

let () =
  Alcotest.run "blame"
    [ ("attribution",
       [ Alcotest.test_case "release splits blame" `Quick
           test_release_splits_blame;
         Alcotest.test_case "equal split conserves" `Quick
           test_equal_split_is_conservative;
         Alcotest.test_case "re-wait swaps blockers" `Quick
           test_rewait_swaps_blockers;
         Alcotest.test_case "aborts and unfinished" `Quick
           test_aborted_and_unfinished_waits ]);
      ("conservation",
       [ Alcotest.test_case "committed fixtures" `Quick
           test_fixture_conservation ]) ]
