(* Tests for the §4.4.2 lock protocol: rules 1-5, rule 4', the two implicit
   propagations, and the exact lock sets of the paper's Figure 7. *)

module Path = Nf2.Path
module Oid = Nf2.Oid
module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id
module Graph = Colock.Instance_graph
module Protocol = Colock.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node steps = Option.get (Node_id.of_steps steps)

type env = {
  graph : Graph.t;
  table : Table.t;
  rights : Authz.Rights.t;
  protocol : Protocol.t;
}

let make_env ?(rule = Protocol.Rule_4_prime) ?(c_objects = 3) () =
  let db = Workload.Figure1.database ~c_objects () in
  let graph = Graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Protocol.create ~rule ~rights graph table in
  { graph; table; rights; protocol }

let at env steps = Graph.node_exn env.graph (node steps)

let acquire_exn env ~txn id mode =
  match Protocol.acquire env.protocol ~txn (Graph.node_exn env.graph id) mode with
  | Protocol.Acquired steps -> steps
  | Protocol.Blocked { step; blockers; _ } ->
    Alcotest.failf "unexpected block on %s (blockers %s)"
      (Node_id.to_resource step.Protocol.node)
      (String.concat "," (List.map string_of_int blockers))

let held env ~txn steps =
  Table.held env.table ~txn ~resource:(Node_id.to_resource (node steps))

let mode_testable = Alcotest.testable Mode.pp Mode.equal
let check_mode label expected actual = Alcotest.check mode_testable label expected actual

(* Named instance nodes of the Figure 6/7 database. *)
let db1 = [ "db1" ]
let seg1 = [ "db1"; "seg1" ]
let seg2 = [ "db1"; "seg2" ]
let rel_cells = [ "db1"; "seg1"; "cells" ]
let rel_effectors = [ "db1"; "seg2"; "effectors" ]
let cell_c1 = [ "db1"; "seg1"; "cells"; "c1" ]
let robots = [ "db1"; "seg1"; "cells"; "c1"; "robots" ]
let robot_r1 = [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ]
let robot_r2 = [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ]
let c_objects = [ "db1"; "seg1"; "cells"; "c1"; "c_objects" ]
let effector_e1 = [ "db1"; "seg2"; "effectors"; "e1" ]
let effector_e2 = [ "db1"; "seg2"; "effectors"; "e2" ]
let effector_e3 = [ "db1"; "seg2"; "effectors"; "e3" ]

(* ------------------------------------------------------------------ Plans *)

let test_plan_simple_read () =
  let env = make_env () in
  let steps = Protocol.plan env.protocol ~txn:1 (node c_objects) Mode.S in
  Alcotest.(check (list (pair string string)))
    "IS chain then S"
    [ ("db1", "IS"); ("db1/seg1", "IS"); ("db1/seg1/cells", "IS");
      ("db1/seg1/cells/c1", "IS"); ("db1/seg1/cells/c1/c_objects", "S") ]
    (List.map
       (fun { Protocol.node; mode; _ } ->
         (Node_id.to_resource node, Mode.to_string mode))
       steps)

let test_plan_is_deterministic () =
  let env = make_env () in
  let plan () =
    List.map
      (fun { Protocol.node; mode; _ } ->
        (Node_id.to_resource node, Mode.to_string mode))
      (Protocol.plan env.protocol ~txn:1 (node robot_r1) Mode.X)
  in
  check_bool "same plan twice" true (plan () = plan ())

let test_plan_parents_before_children () =
  let env = make_env () in
  List.iter
    (fun (target, mode) ->
      let steps = Protocol.plan env.protocol ~txn:1 (node target) mode in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun { Protocol.node = step_node; _ } ->
          (match Node_id.parent step_node with
           | Some parent ->
             check_bool
               (Printf.sprintf "parent of %s first" (Node_id.to_resource step_node))
               true
               (Hashtbl.mem seen (Node_id.to_resource parent))
           | None -> ());
          Hashtbl.replace seen (Node_id.to_resource step_node) ())
        steps)
    [ (robot_r1, Mode.X); (cell_c1, Mode.S); (effector_e2, Mode.X);
      (rel_cells, Mode.SIX) ]

(* ---------------------------------------------------------------- Figure 7 *)

(* Q2: X on robot r1, no right to modify the effectors library. *)
let run_q2 env ~txn =
  Authz.Rights.revoke_modify env.rights ~txn ~relation:"effectors";
  acquire_exn env ~txn (node robot_r1) Mode.X

(* Q3: X on robot r2, same restriction. *)
let run_q3 env ~txn =
  Authz.Rights.revoke_modify env.rights ~txn ~relation:"effectors";
  acquire_exn env ~txn (node robot_r2) Mode.X

let test_figure7_q2_locks () =
  let env = make_env () in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  (* Exactly the locks of Fig. 7, left column. *)
  check_mode "db1 IX" Mode.IX (held env ~txn:2 db1);
  check_mode "seg1 IX" Mode.IX (held env ~txn:2 seg1);
  check_mode "cells IX" Mode.IX (held env ~txn:2 rel_cells);
  check_mode "c1 IX" Mode.IX (held env ~txn:2 cell_c1);
  check_mode "robots IX" Mode.IX (held env ~txn:2 robots);
  check_mode "r1 X" Mode.X (held env ~txn:2 robot_r1);
  check_mode "seg2 IS" Mode.IS (held env ~txn:2 seg2);
  check_mode "relation effectors IS" Mode.IS (held env ~txn:2 rel_effectors);
  check_mode "e1 S" Mode.S (held env ~txn:2 effector_e1);
  check_mode "e2 S" Mode.S (held env ~txn:2 effector_e2);
  (* ... and nothing else: *)
  check_mode "e3 untouched" Mode.NL (held env ~txn:2 effector_e3);
  check_mode "c_objects untouched" Mode.NL (held env ~txn:2 c_objects);
  check_mode "r2 untouched" Mode.NL (held env ~txn:2 robot_r2);
  check_int "exactly 10 locks" 10
    (List.length (Table.locks_of env.table ~txn:2))

let test_figure7_q3_locks () =
  let env = make_env () in
  let (_ : Protocol.step list) = run_q3 env ~txn:3 in
  check_mode "db1 IX" Mode.IX (held env ~txn:3 db1);
  check_mode "seg1 IX" Mode.IX (held env ~txn:3 seg1);
  check_mode "cells IX" Mode.IX (held env ~txn:3 rel_cells);
  check_mode "c1 IX" Mode.IX (held env ~txn:3 cell_c1);
  check_mode "robots IX" Mode.IX (held env ~txn:3 robots);
  check_mode "r2 X" Mode.X (held env ~txn:3 robot_r2);
  check_mode "seg2 IS" Mode.IS (held env ~txn:3 seg2);
  check_mode "relation effectors IS" Mode.IS (held env ~txn:3 rel_effectors);
  check_mode "e2 S" Mode.S (held env ~txn:3 effector_e2);
  check_mode "e3 S" Mode.S (held env ~txn:3 effector_e3);
  check_mode "e1 untouched" Mode.NL (held env ~txn:3 effector_e1);
  check_int "exactly 10 locks" 10
    (List.length (Table.locks_of env.table ~txn:3))

let test_figure7_q2_q3_concurrent () =
  (* The paper's headline: under rule 4', Q2 and Q3 run concurrently although
     both touch effector e2. *)
  let env = make_env () in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  Authz.Rights.revoke_modify env.rights ~txn:3 ~relation:"effectors";
  match
    Protocol.acquire env.protocol ~wait:false ~txn:3 (at env robot_r2) Mode.X
  with
  | Protocol.Acquired _ ->
    check_mode "both hold S on e2 (T2)" Mode.S (held env ~txn:2 effector_e2);
    check_mode "both hold S on e2 (T3)" Mode.S (held env ~txn:3 effector_e2)
  | Protocol.Blocked { step; _ } ->
    Alcotest.failf "Q3 blocked on %s under rule 4'"
      (Node_id.to_resource step.Protocol.node)

let test_figure7_rule4_serializes () =
  (* Under plain rule 4 the same two queries conflict on e2 (X vs X). *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:2 (node robot_r1) Mode.X
  in
  check_mode "rule 4 propagates X" Mode.X (held env ~txn:2 effector_e2);
  match
    Protocol.acquire env.protocol ~wait:false ~txn:3 (at env robot_r2) Mode.X
  with
  | Protocol.Blocked { step; blockers; _ } ->
    Alcotest.(check (list int)) "blocked by T2" [ 2 ] blockers;
    check_bool "blocked on e2" true
      (String.equal
         (Node_id.to_resource step.Protocol.node)
         "db1/seg2/effectors/e2")
  | Protocol.Acquired _ -> Alcotest.fail "rule 4 must serialize Q2/Q3"

(* ------------------------------------------------- Granule-oriented (Q1/Q2) *)

let test_q1_q2_concurrent () =
  (* §3.2.1: Q1 reads c_objects of c1, Q2 updates robot r1; with sub-object
     granules they do not conflict. *)
  let env = make_env () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node c_objects) Mode.S
  in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  check_mode "Q1 holds S c_objects" Mode.S (held env ~txn:1 c_objects);
  check_mode "Q2 holds X r1" Mode.X (held env ~txn:2 robot_r1)

let test_whole_object_locking_would_conflict () =
  (* The same two queries on whole-object granules do conflict. *)
  let env = make_env () in
  let (_ : Protocol.step list) = acquire_exn env ~txn:1 (node cell_c1) Mode.S in
  match
    Protocol.acquire env.protocol ~wait:false ~txn:2 (at env cell_c1) Mode.X
  with
  | Protocol.Blocked _ -> ()
  | Protocol.Acquired _ -> Alcotest.fail "whole-object X vs S must conflict"

(* -------------------------------------------------------- From-the-side *)

let test_from_the_side_conflict_detected () =
  (* §3.2.2: T2 X-locks robot r1 (covering e1/e2 via downward propagation as
     modifiable data under rule 4); T3 then reads e2 "from the side" through
     robot r2 and must see the conflict. *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:2 (node robot_r1) Mode.X
  in
  match
    Protocol.acquire env.protocol ~wait:false ~txn:3 (at env robot_r2) Mode.S
  with
  | Protocol.Blocked { step; blockers; _ } ->
    Alcotest.(check (list int)) "blocked by T2" [ 2 ] blockers;
    check_bool "conflict surfaces on e2" true
      (String.equal
         (Node_id.to_resource step.Protocol.node)
         "db1/seg2/effectors/e2")
  | Protocol.Acquired _ ->
    Alcotest.fail "from-the-side access must be synchronized"

let test_direct_library_update_sees_readers () =
  (* A library-maintenance transaction X-locking e2 directly must conflict
     with a reader that holds e2 S via downward propagation. *)
  let env = make_env () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node robot_r2) Mode.S
  in
  check_mode "reader holds e2 S" Mode.S (held env ~txn:1 effector_e2);
  match
    Protocol.acquire env.protocol ~wait:false ~txn:2 (at env effector_e2) Mode.X
  with
  | Protocol.Blocked { blockers; _ } ->
    Alcotest.(check (list int)) "blocked by reader" [ 1 ] blockers
  | Protocol.Acquired _ -> Alcotest.fail "library update must wait for readers"

(* ------------------------------------------------------- Explicit protocol *)

let test_explicit_requires_parent () =
  let env = make_env () in
  match
    Protocol.request_explicit env.protocol ~txn:1 (at env cell_c1) Mode.S
  with
  | Error (Protocol.Parent_not_locked { needed; _ }) ->
    check_mode "needs IS" Mode.IS needed
  | Error _ -> Alcotest.fail "wrong violation"
  | Ok _ -> Alcotest.fail "rule 1 must reject an unlocked parent chain"

let test_explicit_root_needs_nothing () =
  let env = make_env () in
  match Protocol.request_explicit env.protocol ~txn:1 (at env db1) Mode.IX with
  | Ok (Protocol.Acquired _) -> ()
  | Ok (Protocol.Blocked _) | Error _ ->
    Alcotest.fail "root of the outer unit needs no prior locks"

let test_explicit_step_by_step () =
  (* Locking root-to-leaf by hand satisfies the explicit protocol. *)
  let env = make_env () in
  let request steps mode =
    match Protocol.request_explicit env.protocol ~txn:1 (at env steps) mode with
    | Ok (Protocol.Acquired _) -> ()
    | Ok (Protocol.Blocked _) -> Alcotest.fail "unexpected block"
    | Error violation ->
      Alcotest.failf "violation: %s"
        (Format.asprintf "%a" Protocol.pp_protocol_violation violation)
  in
  request db1 Mode.IX;
  request seg1 Mode.IX;
  request rel_cells Mode.IX;
  request cell_c1 Mode.IX;
  request robots Mode.IX;
  request robot_r1 Mode.X;
  check_mode "r1 X" Mode.X (held env ~txn:1 robot_r1)

let test_explicit_entry_point_via_reference () =
  (* An entry point may be requested once the referencing node is
     intention-locked; the manager performs the upward propagation. *)
  let env = make_env () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node robot_r1) Mode.S
  in
  (* r1 S-locked: its BLU refs are implicitly covered, so e1 is reachable. *)
  (match
     Protocol.request_explicit env.protocol ~txn:1 (at env effector_e1) Mode.S
   with
   | Ok (Protocol.Acquired _) -> ()
   | Ok (Protocol.Blocked _) | Error _ ->
     Alcotest.fail "entry point should be grantable via reference");
  check_mode "upward propagation locked seg2" Mode.IS (held env ~txn:1 seg2);
  check_mode "upward propagation locked relation" Mode.IS
    (held env ~txn:1 rel_effectors)

let test_explicit_entry_point_unreachable () =
  let env = make_env () in
  match
    Protocol.request_explicit env.protocol ~txn:1 (at env effector_e1) Mode.S
  with
  | Error (Protocol.Entry_point_not_reached _) -> ()
  | Error _ -> Alcotest.fail "wrong violation"
  | Ok _ -> Alcotest.fail "unreached entry point must be rejected"

let test_explicit_unknown_node () =
  (* an explicit request names a resolved node; a path outside the graph
     does not resolve *)
  let env = make_env () in
  Alcotest.(check bool) "unresolved" true
    (Option.is_none (Graph.node env.graph (node [ "db1"; "nowhere" ])))

(* --------------------------------------------------------- Effective mode *)

let test_effective_mode_implicit () =
  let env = make_env () in
  let (_ : Protocol.step list) = acquire_exn env ~txn:1 (node cell_c1) Mode.X in
  check_mode "descendant implicitly X" Mode.X
    (Protocol.effective_mode env.protocol ~txn:1 (at env robot_r1));
  check_mode "deep descendant implicitly X" Mode.X
    (Protocol.effective_mode env.protocol ~txn:1
       (at env (robot_r1 @ [ "trajectory" ])));
  (* X on c1 reaches the effectors through downward propagation (all
     modifiable by default), so e1 is explicitly X, not implicitly covered. *)
  check_mode "e1 explicitly X via propagation" Mode.X (held env ~txn:1 effector_e1);
  check_mode "no explicit lock below c1 itself" Mode.NL
    (held env ~txn:1 (c_objects @ [ "1" ]))

let test_effective_mode_s_over_six () =
  let env = make_env () in
  let (_ : Protocol.step list) = acquire_exn env ~txn:1 (node cell_c1) Mode.S in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node cell_c1) Mode.IX
  in
  check_mode "cell holds SIX" Mode.SIX (held env ~txn:1 cell_c1);
  check_mode "descendants implicitly S" Mode.S
    (Protocol.effective_mode env.protocol ~txn:1 (at env robot_r1))

let test_effective_mode_no_dashed_inheritance () =
  (* Implicit locks do not flow across dashed edges: X on robot r1 does not
     implicitly cover effector e1's BLUs; the *explicit* downward-propagation
     lock on e1 does. *)
  let env = make_env ~rule:Protocol.Rule_4 () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node robot_r1) Mode.X
  in
  check_mode "e1 explicitly X (propagated)" Mode.X (held env ~txn:1 effector_e1);
  check_mode "e1's tool implicitly X via e1" Mode.X
    (Protocol.effective_mode env.protocol ~txn:1
       (at env (effector_e1 @ [ "tool" ])))

(* ------------------------------------------------------- Rule 5 / release *)

let test_release_leaf_to_root () =
  let env = make_env () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:1 (node c_objects) Mode.S
  in
  let (_ : Table.grant list) =
    Protocol.release_node env.protocol ~txn:1 (at env c_objects)
  in
  check_mode "leaf released" Mode.NL (held env ~txn:1 c_objects);
  check_mode "parents still intention-locked" Mode.IS (held env ~txn:1 cell_c1);
  let (_ : Table.grant list) = Protocol.end_of_transaction env.protocol ~txn:1 in
  check_int "all gone" 0 (List.length (Table.locks_of env.table ~txn:1))

let test_end_of_transaction_wakes_waiters () =
  let env = make_env () in
  let (_ : Protocol.step list) = acquire_exn env ~txn:1 (node cell_c1) Mode.X in
  (match Protocol.acquire env.protocol ~txn:2 (at env cell_c1) Mode.S with
   | Protocol.Blocked _ -> ()
   | Protocol.Acquired _ -> Alcotest.fail "should block");
  let grants = Protocol.end_of_transaction env.protocol ~txn:1 in
  check_bool "T2 woken" true
    (List.exists (fun grant -> grant.Table.g_txn = 2) grants)

(* -------------------------------------------- Disjoint degenerates to R *)

let test_disjoint_plan_matches_system_r () =
  (* On a reference-free database the plan is exactly the System R DAG
     protocol: intentions on database/segment/relation, lock on the object. *)
  let db =
    Workload.Generator.deep
      { Workload.Generator.default_deep with share = false; parts = 0;
        depth = 1; objects = 2 }
  in
  let graph = Graph.build db in
  let table = Table.create () in
  let protocol = Protocol.create graph table in
  let a1 = Option.get (Graph.object_node graph (Oid.make ~relation:"assemblies" ~key:"a1")) in
  let steps = Protocol.plan_node protocol ~txn:1 a1 Mode.X in
  Alcotest.(check (list (pair string string)))
    "System R shape"
    [ ("db1", "IX"); ("db1/seg_asm", "IX"); ("db1/seg_asm/assemblies", "IX");
      ("db1/seg_asm/assemblies/a1", "X") ]
    (List.map
       (fun { Protocol.node; mode; _ } ->
         (Node_id.to_resource node, Mode.to_string mode))
       steps)

(* -------------------------------------------------- Semantics refinement *)

let test_reference_blind_delete_skips_propagation () =
  (* §4.5: deleting a robot without touching its effectors takes no locks on
     common data at all. *)
  let env = make_env () in
  let steps =
    Protocol.plan env.protocol ~txn:1 ~follow_references:false (node robot_r1)
      Mode.X
  in
  check_int "just the chain + X" 6 (List.length steps);
  check_bool "no effector locks planned" true
    (List.for_all
       (fun { Protocol.node = step_node; _ } ->
         not
           (Node_id.is_ancestor ~ancestor:(node seg2) step_node))
       steps)

let test_reference_blind_delete_ignores_library_writer () =
  (* A librarian holding e1 X does not block the reference-blind delete. *)
  let env = make_env () in
  let (_ : Protocol.step list) =
    acquire_exn env ~txn:9 (node effector_e1) Mode.X
  in
  match
    Protocol.acquire env.protocol ~wait:false ~txn:1 ~follow_references:false
      (at env robot_r1) Mode.X
  with
  | Protocol.Acquired _ -> ()
  | Protocol.Blocked _ ->
    Alcotest.fail "reference-blind access must not touch the library"

let test_acquire_idempotent () =
  let env = make_env () in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  let before = Table.locks_of env.table ~txn:2 in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  check_bool "same lock set after re-acquire" true
    (before = Table.locks_of env.table ~txn:2);
  check_int "still 10 locks" 10 (List.length before)

(* A check-out (§3.1) over a plan already held Short marks every step Long
   even when it may not wait, so a commit keeping long locks keeps them. *)
let test_nonwaiting_long_acquire_sticks () =
  let env = make_env () in
  let steps = acquire_exn env ~txn:1 (node robot_r1) Mode.S in
  (match
     Protocol.acquire env.protocol ~txn:1 ~wait:false ~duration:Table.Long
       (at env robot_r1) Mode.S
   with
   | Protocol.Acquired _ -> ()
   | Protocol.Blocked _ -> Alcotest.fail "a covered plan cannot block");
  check_bool "every lock Long" true
    (List.for_all
       (fun (_resource, _mode, duration) -> duration = Table.Long)
       (Table.locks_of env.table ~txn:1));
  let (_ : Table.grant list) =
    Protocol.commit_keeping_long_locks env.protocol ~txn:1
  in
  check_int "every step kept" (List.length steps)
    (List.length (Table.locks_of env.table ~txn:1))

(* ------------------------------------------------ Blocking and resumption *)

let test_blocked_acquire_resumes () =
  let env = make_env () in
  let (_ : Protocol.step list) = acquire_exn env ~txn:1 (node robot_r1) Mode.X in
  (* T2 wants the whole cell: blocked on r1's ancestor... actually on c1?  No:
     T2's S on c1 conflicts with T1's IX on c1.  It queues there. *)
  (match Protocol.acquire env.protocol ~txn:2 (at env cell_c1) Mode.S with
   | Protocol.Blocked { step; _ } ->
     check_bool "blocked on c1" true
       (String.equal (Node_id.to_resource step.Protocol.node)
          "db1/seg1/cells/c1")
   | Protocol.Acquired _ -> Alcotest.fail "should block");
  let (_ : Table.grant list) = Protocol.end_of_transaction env.protocol ~txn:1 in
  (* After T1 is gone the queued grant already installed T2's lock; re-calling
     acquire completes the remaining plan steps. *)
  match Protocol.acquire env.protocol ~txn:2 (at env cell_c1) Mode.S with
  | Protocol.Acquired _ ->
    check_mode "T2 holds c1 S" Mode.S (held env ~txn:2 cell_c1)
  | Protocol.Blocked _ -> Alcotest.fail "retry should succeed"

(* ---------------------------------------------------------- Observability *)

(* The protocol has no sink of its own: the grants of its plan and the
   events it emits itself go to its lock table's sink, the grants tagged
   with the lock graph's LUs; over a table with no sink it emits nothing. *)
let test_emits_into_table_sink () =
  let graph = Graph.build (Workload.Figure1.database ~c_objects:3 ()) in
  let kinds = ref [] in
  let sink =
    Obs.Sink.create [ (fun event -> kinds := event.Obs.Event.kind :: !kinds) ]
  in
  let protocol = Protocol.create graph (Table.create ~obs:sink ()) in
  (match
     Protocol.acquire protocol ~txn:1 (Graph.node_exn graph (node robot_r1))
       Mode.S
   with
   | Protocol.Acquired _ -> ()
   | Protocol.Blocked _ -> Alcotest.fail "nothing else holds a lock");
  let grants =
    List.filter_map
      (function
        | Obs.Event.Lock_granted { resource; lu; _ } -> Some (resource, lu)
        | _ -> None)
      !kinds
  in
  check_bool "the plan's grants reach the table's sink" true
    (List.mem "db1/seg1/cells/c1/robots/r1" (List.map fst grants));
  check_bool "each tagged with its LU" true
    (List.for_all
       (fun (resource, lu) ->
         Option.is_some lu && lu = Graph.lu_resolver graph resource)
       grants);
  let escalation =
    Obs.Event.Escalation
      { txn = 1; node = "db1"; mode = "S"; released_children = 0 }
  in
  Protocol.emit protocol escalation;
  check_bool "and what the protocol emits" true (List.hd !kinds = escalation);
  let seen = List.length !kinds in
  Protocol.emit (Protocol.create graph (Table.create ())) escalation;
  check_int "a sinkless table's protocol emits nowhere" seen
    (List.length !kinds)

(* --------------------------------------------- Oracle: no hidden conflicts *)

let all_data_nodes env =
  Graph.fold (fun node accu -> Graph.id env.graph node :: accu) env.graph []

let assert_no_effective_conflict env ~txns =
  List.iter
    (fun id ->
      let effective =
        List.map
          (fun txn ->
            (txn, Protocol.effective_mode env.protocol ~txn (Graph.node_exn env.graph id)))
          txns
      in
      List.iter
        (fun (txn_a, mode_a) ->
          List.iter
            (fun (txn_b, mode_b) ->
              if txn_a < txn_b then
                let data_conflict =
                  (Mode.grants_write mode_a && Mode.grants_read mode_b)
                  || (Mode.grants_read mode_a && Mode.grants_write mode_b)
                in
                if data_conflict then
                  Alcotest.failf "hidden conflict at %s: T%d=%s T%d=%s"
                    (Node_id.to_resource id) txn_a (Mode.to_string mode_a)
                    txn_b (Mode.to_string mode_b))
            effective)
        effective)
    (all_data_nodes env)

let test_oracle_on_figure7 () =
  let env = make_env () in
  let (_ : Protocol.step list) = run_q2 env ~txn:2 in
  let (_ : Protocol.step list) = run_q3 env ~txn:3 in
  assert_no_effective_conflict env ~txns:[ 2; 3 ]

let prop_random_acquires_never_hide_conflicts =
  (* Random transactions acquire random granted locks; at every point, no two
     transactions may hold effectively conflicting data locks anywhere. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (triple (int_range 1 4) (int_range 0 1000) (oneofl [ Mode.S; Mode.X; Mode.IS; Mode.IX ])))
  in
  let arbitrary =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (fun (txn, pick, mode) ->
               Printf.sprintf "T%d:%d:%s" txn pick (Mode.to_string mode))
             ops))
      gen
  in
  QCheck.Test.make ~name:"random acquires never hide conflicts" ~count:60
    arbitrary
    (fun operations ->
      let env = make_env () in
      let nodes = Array.of_list (all_data_nodes env) in
      Array.sort Node_id.compare nodes;
      List.iter
        (fun (txn, pick, mode) ->
          let id = nodes.(pick mod Array.length nodes) in
          match
            Protocol.acquire env.protocol ~wait:false ~txn
              (Graph.node_exn env.graph id) mode
          with
          | Protocol.Acquired _ -> ()
          | Protocol.Blocked { acquired = _; _ } ->
            (* keep the prefix; that is legal 2PL behaviour *)
            ())
        operations;
      assert_no_effective_conflict env ~txns:[ 1; 2; 3; 4 ];
      true)

let () =
  Alcotest.run "protocol"
    [ ("plans",
       [ Alcotest.test_case "simple read" `Quick test_plan_simple_read;
         Alcotest.test_case "deterministic" `Quick test_plan_is_deterministic;
         Alcotest.test_case "parents before children" `Quick
           test_plan_parents_before_children ]);
      ("figure7",
       [ Alcotest.test_case "Q2 lock set" `Quick test_figure7_q2_locks;
         Alcotest.test_case "Q3 lock set" `Quick test_figure7_q3_locks;
         Alcotest.test_case "Q2 || Q3 under rule 4'" `Quick
           test_figure7_q2_q3_concurrent;
         Alcotest.test_case "rule 4 serializes" `Quick
           test_figure7_rule4_serializes ]);
      ("granule_problem",
       [ Alcotest.test_case "Q1 || Q2 with sub-object granules" `Quick
           test_q1_q2_concurrent;
         Alcotest.test_case "whole-object locking conflicts" `Quick
           test_whole_object_locking_would_conflict ]);
      ("from_the_side",
       [ Alcotest.test_case "conflict detected" `Quick
           test_from_the_side_conflict_detected;
         Alcotest.test_case "direct library update sees readers" `Quick
           test_direct_library_update_sees_readers ]);
      ("explicit_protocol",
       [ Alcotest.test_case "requires parent" `Quick
           test_explicit_requires_parent;
         Alcotest.test_case "root needs nothing" `Quick
           test_explicit_root_needs_nothing;
         Alcotest.test_case "step by step" `Quick test_explicit_step_by_step;
         Alcotest.test_case "entry point via reference" `Quick
           test_explicit_entry_point_via_reference;
         Alcotest.test_case "entry point unreachable" `Quick
           test_explicit_entry_point_unreachable;
         Alcotest.test_case "unknown node" `Quick test_explicit_unknown_node ]);
      ("effective_mode",
       [ Alcotest.test_case "implicit X" `Quick test_effective_mode_implicit;
         Alcotest.test_case "SIX implies S below" `Quick
           test_effective_mode_s_over_six;
         Alcotest.test_case "no dashed inheritance" `Quick
           test_effective_mode_no_dashed_inheritance ]);
      ("release",
       [ Alcotest.test_case "leaf to root" `Quick test_release_leaf_to_root;
         Alcotest.test_case "EOT wakes waiters" `Quick
           test_end_of_transaction_wakes_waiters ]);
      ("disjoint",
       [ Alcotest.test_case "plan matches System R" `Quick
           test_disjoint_plan_matches_system_r ]);
      ("semantics",
       [ Alcotest.test_case "reference-blind delete plan" `Quick
           test_reference_blind_delete_skips_propagation;
         Alcotest.test_case "ignores library writer" `Quick
           test_reference_blind_delete_ignores_library_writer;
         Alcotest.test_case "acquire idempotent" `Quick
           test_acquire_idempotent;
         Alcotest.test_case "non-waiting long acquire sticks" `Quick
           test_nonwaiting_long_acquire_sticks ]);
      ("blocking",
       [ Alcotest.test_case "blocked acquire resumes" `Quick
           test_blocked_acquire_resumes ]);
      ("observability",
       [ Alcotest.test_case "emits into the table's sink" `Quick
           test_emits_into_table_sink ]);
      ("oracle",
       [ Alcotest.test_case "figure 7 oracle" `Quick test_oracle_on_figure7;
         QCheck_alcotest.to_alcotest prop_random_acquires_never_hide_conflicts
       ]) ]
