(* Quickstart: the paper's running example end to end.

   Builds the Figure 1 database (cells / effectors), prints the derived
   object-specific lock graph (Figure 5), runs the three queries of Figure 3
   through the locking executor, and prints the lock table — reproducing the
   lock sets of Figure 7.

   Run with: dune exec examples/quickstart.exe *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let () =
  section "1. The Figure 1 database";
  let db = Workload.Figure1.database () in
  List.iter
    (fun store ->
      Format.printf "%a@." Nf2.Schema.pp_relation (Nf2.Relation.schema store))
    (Nf2.Database.relations db);

  section "2. Object-specific lock graph of relation \"cells\" (Figure 5)";
  let cells_graph =
    Colock.Object_graph.of_relation ~database:"db1"
      Workload.Figure1.cells_schema
  in
  Format.printf "%a@." Colock.Object_graph.pp cells_graph;

  section "3. Executing Q1, Q2, Q3 (Figure 3)";
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let rights = Authz.Rights.create () in
  (* Workstation users may not change the effector library (rule 4'). *)
  Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Colock.Protocol.create ~rights graph table in
  let executor = Query.Executor.create db protocol in
  let run txn text =
    Printf.printf "T%d: %s\n" txn text;
    match Query.Executor.run_string executor ~txn text with
    | Ok result ->
      Printf.printf "  -> %d row(s), %d lock request(s)\n"
        (List.length result.Query.Executor.rows)
        result.Query.Executor.locks_requested;
      List.iter
        (fun row ->
          Format.printf "     %s = %a@."
            (Colock.Instance_graph.resource graph row.Query.Executor.node)
            Nf2.Value.pp row.Query.Executor.value)
        result.Query.Executor.rows
    | Error error ->
      Format.printf "  -> %a@." Query.Executor.pp_error error
  in
  run 1
    "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";
  run 2
    "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
     r.robot_id = 'r1' FOR UPDATE";
  run 3
    "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND \
     r.robot_id = 'r2' FOR UPDATE";

  section "4. The lock table (compare with Figure 7)";
  Format.printf "%a@." Lockmgr.Lock_table.pp table;
  Printf.printf
    "\nQ1, Q2 and Q3 all run concurrently: Q1 and Q2 touch disjoint parts of\n\
     cell c1, and Q2/Q3 share effector e2 in S mode because neither may\n\
     modify the effector library (rule 4').\n"
