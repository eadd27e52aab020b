(* The paper demos: the lock graphs (Figure 5), a query's lock plan and
   query execution against the Figure 1 database (Figure 7). *)

open Cmdliner
open Plumbing

let make_fig1_env ~library_writable =
  let db = Workload.Figure1.database () in
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let rights = Authz.Rights.create () in
  if not library_writable then
    Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Colock.Protocol.create ~rights graph table in
  (db, graph, table, protocol)

(* ------------------------------------------------------------------ graph *)

let graph_cmd =
  let deep_depth =
    Arg.(value & opt (some int) None
         & info [ "deep" ] ~docv:"DEPTH"
             ~doc:"Show the lock graph of a generated schema of this depth \
                   instead of the Figure 1 relations.")
  in
  let run () deep =
    (match deep with
     | Some depth ->
       let db =
         Workload.Generator.deep
           { Workload.Generator.default_deep with depth; objects = 1 }
       in
       List.iter
         (fun store ->
           let schema = Nf2.Relation.schema store in
           Format.printf "%a@.@." Colock.Object_graph.pp
             (Colock.Object_graph.of_relation ~database:"db1" schema))
         (Nf2.Database.relations db)
     | None ->
       List.iter
         (fun schema ->
           Format.printf "%a@.@." Colock.Object_graph.pp
             (Colock.Object_graph.of_relation ~database:"db1" schema))
         [ Workload.Figure1.cells_schema; Workload.Figure1.effectors_schema ]);
    0
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print object-specific lock graphs (Figure 5).")
    Term.(const run $ setup_logs $ deep_depth)

(* ------------------------------------------------------------------- plan *)

let query_arg position =
  Arg.(required & pos position (some string) None
       & info [] ~docv:"QUERY" ~doc:"An HDBL-like query (see Figure 3).")

let plan_cmd =
  let threshold =
    Arg.(value & opt int 16
         & info [ "threshold" ] ~docv:"N" ~doc:"Escalation threshold.")
  in
  let run () text threshold =
    let db, _graph, _table, _protocol = make_fig1_env ~library_writable:true in
    match Query.Parser.parse text with
    | Error error ->
      Format.eprintf "%a@." Query.Parser.pp_error error;
      1
    | Ok ast -> (
      let catalog = Nf2.Database.catalog db in
      match Query.Analyzer.analyze catalog ast with
      | Error error ->
        Format.eprintf "%a@." Query.Analyzer.pp_error error;
        1
      | Ok analysis ->
        let stats relation =
          match Nf2.Database.relation db relation with
          | Some store -> Nf2.Statistics.compute store
          | None -> Nf2.Statistics.empty relation
        in
        let plan =
          Colock.Query_graph.build ~threshold catalog ~stats
            analysis.Query.Analyzer.accesses
        in
        Format.printf "%a@." Colock.Query_graph.pp plan;
        0)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Show the query-specific lock graph (granules and modes) chosen \
             by escalation anticipation.")
    Term.(const run $ setup_logs $ query_arg 0 $ threshold)

(* ------------------------------------------------------------------ query *)

let query_cmd =
  let queries =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:"Queries, executed by transactions 1, 2, ... in order.")
  in
  let library_writable =
    Arg.(value & flag
         & info [ "library-writable" ]
             ~doc:"Allow every transaction to modify the effectors library \
                   (rule 4' then behaves like rule 4).")
  in
  let run () texts library_writable =
    let db, _graph, table, protocol = make_fig1_env ~library_writable in
    let executor = Query.Executor.create db protocol in
    let failed = ref false in
    List.iteri
      (fun index text ->
        let txn = index + 1 in
        Printf.printf "T%d: %s\n" txn text;
        match Query.Executor.run_string executor ~txn ~wait:false text with
        | Ok result ->
          Printf.printf "  %d row(s), %d lock request(s)\n"
            (List.length result.Query.Executor.rows)
            result.Query.Executor.locks_requested
        | Error error ->
          failed := true;
          Format.printf "  %a@." Query.Executor.pp_error error)
      texts;
    Format.printf "@.lock table:@.%a@." Lockmgr.Lock_table.pp table;
    if !failed then 1 else 0
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Execute queries against the Figure 1 database and show the \
             resulting lock table (compare with Figure 7).")
    Term.(const run $ setup_logs $ queries $ library_writable)

