(* A part library with common data and authorization (§3.2.3 / rule 4').

   Engineers update robots that reference shared effectors; a librarian
   occasionally updates the effector library itself. Engineers have no
   right to modify the library, so under rule 4' their X locks on robots
   weaken to S on the referenced effectors — two engineers sharing a tool
   proceed concurrently, while the librarian's library update correctly
   waits for both.

   Run with: dune exec examples/part_library.exe *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Node_id = Colock.Node_id

let () =
  let db = Workload.Figure1.database () in
  let graph = Colock.Instance_graph.build db in
  let table = Table.create () in
  let rights = Authz.Rights.create () in
  let protocol = Colock.Protocol.create ~rights graph table in
  let manager = Txn.Txn_manager.create protocol in

  (* Engineers T1, T2 may not modify the library; librarian T3 may. *)
  let engineer_1 = Txn.Txn_manager.begin_txn manager in
  let engineer_2 = Txn.Txn_manager.begin_txn manager in
  let librarian = Txn.Txn_manager.begin_txn manager in
  Authz.Rights.revoke_modify rights ~txn:engineer_1.Txn.Transaction.id
    ~relation:"effectors";
  Authz.Rights.revoke_modify rights ~txn:engineer_2.Txn.Transaction.id
    ~relation:"effectors";

  let node steps = Colock.Instance_graph.node_exn graph (Option.get (Node_id.of_steps steps)) in
  let r1 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  let r2 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ] in
  let e2 = node [ "db1"; "seg2"; "effectors"; "e2" ] in

  let show label txn outcome =
    Printf.printf "%-34s -> %s\n" label
      (match outcome with
       | Txn.Txn_manager.Granted -> "granted"
       | Txn.Txn_manager.Waiting { node; blockers } ->
         Printf.sprintf "waits on %s (blocked by %s)"
           (Node_id.to_resource node)
           (String.concat "," (List.map string_of_int blockers))
       | Txn.Txn_manager.Deadlock_victim -> "deadlock victim");
    ignore txn
  in

  print_endline "both engineers update robots sharing effector e2:";
  show "  engineer 1: X robot r1" engineer_1
    (Txn.Txn_manager.acquire manager engineer_1 r1 Mode.X);
  show "  engineer 2: X robot r2" engineer_2
    (Txn.Txn_manager.acquire manager engineer_2 r2 Mode.X);
  Printf.printf "  e2 holders: %s\n\n"
    (String.concat ", "
       (List.map
          (fun (txn, mode) -> Printf.sprintf "T%d:%s" txn (Mode.to_string mode))
          (Table.holders table ~resource:"db1/seg2/effectors/e2")));

  print_endline "the librarian wants to replace effector e2:";
  show "  librarian: X effector e2" librarian
    (Txn.Txn_manager.acquire manager librarian e2 Mode.X);

  print_endline "\nengineer 1 finishes; librarian still waits for engineer 2:";
  let grants = Txn.Txn_manager.commit manager engineer_1 in
  Printf.printf "  engineer 1 committed (%d grant notifications)\n"
    (List.length grants);

  print_endline "engineer 2 finishes; the librarian's X lock is granted:";
  let grants = Txn.Txn_manager.commit manager engineer_2 in
  List.iter
    (fun grant -> Printf.printf "  T%d resumes\n" grant.Table.g_txn)
    grants;
  (match Txn.Txn_manager.acquire manager librarian e2 Mode.X with
   | Txn.Txn_manager.Granted ->
     Printf.printf "  librarian now holds e2 in %s\n"
       (Mode.to_string
          (Table.held table ~txn:librarian.Txn.Transaction.id
             ~resource:"db1/seg2/effectors/e2"))
   | Txn.Txn_manager.Waiting _ | Txn.Txn_manager.Deadlock_victim ->
     print_endline "  unexpected: librarian still blocked");
  let (_ : Table.grant list) = Txn.Txn_manager.commit manager librarian in
  print_endline "\nfrom-the-side access to common data is synchronized, yet";
  print_endline "read-only use of the library never blocks other readers."
