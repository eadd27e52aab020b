(* Workload [disjoint]: the paper's disjoint case through [Session].

   16 logical clients run round-robin on one thread as a closed loop: a
   client sends its next statement only after the previous one returned.
   Each transaction is 1-3 statements, each a Q1-style read of one cell's
   c_objects or a Q2-style update of one robot, keys drawn uniformly. On
   [Blocked] the client aborts and retries the whole transaction on its next
   turn ([Session.query] runs no deadlock detection, so waiting could hang
   the loop). *)

module Value = Nf2.Value
module Executor = Query.Executor
module Txn_manager = Txn.Txn_manager

let cells = 2048
let robots = 4
let objects = 20
let effectors = 8192
let clients = 16

(* The run is [segments] equal segments, each on a freshly built session
   and cut into [batches_per_segment] equal batches; the set-up samples
   then spread over the whole run like the batches do. *)
let segments = 3
let batches_per_segment = 14

(* Transactions per second of [--seconds]; sized so one run measures about
   that long on a 2-core x86-64 host. *)
let txns_per_second = 6_000

let work ~seconds =
  let batches = segments * batches_per_segment in
  batches * max 1 (txns_per_second * seconds / batches)

(* ----------------------------------------------------------------- inputs *)

(* Statement [s] is [(cell * robots + robot) * 2 + kind], kind 1 = update.
   Transaction [t] owns statements [first.(t)] to [first.(t + 1) - 1]. *)
type script = { first : int array; statements : int array }

let script ~seed ~txns =
  let state = Random.State.make [| seed; 0x5eed |] in
  let first = Array.make (txns + 1) 0 in
  let sizes = Array.init txns (fun _ -> 1 + Random.State.int state 3) in
  Array.iteri (fun txn size -> first.(txn + 1) <- first.(txn) + size) sizes;
  let statements =
    Array.init first.(txns) (fun _ ->
        let cell = Random.State.int state cells in
        let robot = Random.State.int state robots in
        let kind = Random.State.int state 2 in
        (((cell * robots) + robot) * 2) + kind)
  in
  { first; statements }

let is_update statement = statement land 1 = 1
let slot statement = statement lsr 1

let text statement =
  let slot = slot statement in
  let cell = (slot / robots) + 1 and robot = (slot mod robots) + 1 in
  if is_update statement then
    Printf.sprintf
      "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' AND \
       r.robot_id = 'r%d' FOR UPDATE"
      cell robot
  else
    Printf.sprintf
      "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c%d' FOR \
       READ"
      cell

let trajectory_of_txn txn = "t" ^ string_of_int txn

let set_trajectory value = function
  | Value.Tuple fields ->
    Value.Tuple
      (List.map
         (fun (name, sub) ->
           if String.equal name "trajectory" then (name, Value.Str value)
           else (name, sub))
         fields)
  | other -> other

(* ------------------------------------------------------------------ setup *)

let generate seed =
  Workload.Generator.manufacturing
    { Workload.Generator.cells; objects_per_cell = objects;
      robots_per_cell = robots; effectors; effectors_per_robot = 2; seed }

let index db =
  match
    Nf2.Database.create_index db ~relation:"cells" (Nf2.Path.of_string "cell_id")
  with
  | Ok () -> ()
  | Error error ->
    failwith (Format.asprintf "index: %a" Nf2.Database.pp_error error)

let session ?obs seed =
  let db = generate seed in
  index db;
  let session = Session.create ?obs db in
  Session.set_library_read_only session ~relation:"effectors";
  session

(* The calls a client makes; the untraced run binds them to [Session], the
   traced run to the session's components under spans. *)
type ops = {
  begin_txn : unit -> Txn.Transaction.t;
  read : Txn.Transaction.t -> string -> (int, Executor.error) result;
  update :
    Txn.Transaction.t -> string -> (Value.t -> Value.t) -> (int, Executor.error) result;
  commit : Txn.Transaction.t -> unit;
  abort : Txn.Transaction.t -> unit;
}

let session_ops session =
  { begin_txn = (fun () -> Session.begin_txn session);
    read =
      (fun txn text -> Result.map List.length (Session.query session txn text));
    update = Session.update session;
    commit = Session.commit session;
    abort =
      (fun txn ->
        match Session.abort session txn with
        | Ok _undone -> ()
        | Error error ->
          failwith (Format.asprintf "abort: %a" Executor.pp_error error)) }

(* ------------------------------------------------------------------- loop *)

type run = {
  committed : int;
  attempts : int;
  failed : int;
  statements : int;
  bad_rows : int;  (* reads not returning every c_object, updates not one robot *)
  response_turns : int;  (* sum over commits of turns from begin to commit *)
  latencies_us : Float.Array.t;  (* one per committed transaction *)
  batches : Measure.batches;
  model : int array;  (* per robot: last committing transaction, or -1 *)
  seconds : float;
}

(* Runs transactions [first] to [first + txns - 1] of the script. *)
let run_clients ops script ~first ~txns ~batch_count =
  let batch = txns / batch_count in
  let batches = Measure.batches batch_count in
  let latencies_us = Float.Array.make txns 0.0 in
  let model = Array.make (cells * robots) (-1) in
  let current = Array.make clients (-1) in
  let position = Array.make clients 0 in
  let handle = Array.make clients None in
  let started_ns = Array.make clients 0 in
  let started_turn = Array.make clients 0 in
  let next = ref first and committed = ref 0 and attempts = ref 0 and failed = ref 0 in
  let statements = ref 0 and bad_rows = ref 0 and response_turns = ref 0 in
  let turn = ref 0 and active = ref clients in
  let take client =
    if !next < first + txns then begin
      current.(client) <- !next;
      incr next;
      started_ns.(client) <- Measure.now_ns ();
      started_turn.(client) <- !turn
    end
    else begin
      current.(client) <- -1;
      decr active
    end
  in
  for client = 0 to clients - 1 do
    take client
  done;
  let batch_start = ref (Measure.now_ns ()) in
  let start = !batch_start in
  let finish_txn client =
    let txn = current.(client) in
    for index = script.first.(txn) to script.first.(txn + 1) - 1 do
      let statement = script.statements.(index) in
      if is_update statement then model.(slot statement) <- txn
    done;
    Float.Array.set latencies_us !committed
      (float_of_int (Measure.now_ns () - started_ns.(client)) /. 1e3);
    response_turns := !response_turns + (!turn - started_turn.(client));
    incr committed;
    if !committed mod batch = 0 then begin
      let probe_start = Measure.now_ns () in
      ignore
        (Measure.record_batch batches ~work:batch
           ~seconds:(Measure.seconds_since !batch_start)
          : float);
      (* the probe runs outside every transaction's time *)
      let probe_ns = Measure.now_ns () - probe_start in
      for other = 0 to clients - 1 do
        started_ns.(other) <- started_ns.(other) + probe_ns
      done;
      batch_start := Measure.now_ns ()
    end;
    take client
  in
  while !active > 0 do
    for client = 0 to clients - 1 do
      let txn = current.(client) in
      if txn >= 0 then begin
        incr turn;
        let handle_txn =
          match handle.(client) with
          | Some handle_txn -> handle_txn
          | None ->
            let handle_txn = ops.begin_txn () in
            incr attempts;
            handle.(client) <- Some handle_txn;
            position.(client) <- 0;
            handle_txn
        in
        let statement = script.statements.(script.first.(txn) + position.(client)) in
        let outcome =
          if is_update statement then
            ops.update handle_txn (text statement)
              (set_trajectory (trajectory_of_txn txn))
          else ops.read handle_txn (text statement)
        in
        match outcome with
        | Ok rows ->
          incr statements;
          let expected = if is_update statement then 1 else objects in
          if rows <> expected then incr bad_rows;
          position.(client) <- position.(client) + 1;
          if script.first.(txn) + position.(client) = script.first.(txn + 1) then begin
            ops.commit handle_txn;
            handle.(client) <- None;
            finish_txn client
          end
        | Error (Executor.Blocked _) ->
          ops.abort handle_txn;
          handle.(client) <- None
        | Error _ ->
          ops.abort handle_txn;
          handle.(client) <- None;
          incr failed;
          take client
      end
    done
  done;
  { committed = !committed; attempts = !attempts; failed = !failed;
    statements = !statements; bad_rows = !bad_rows;
    response_turns = !response_turns; latencies_us; batches; model;
    seconds = Measure.seconds_since start }

(* ----------------------------------------------------------------- checks *)

let trajectory db ~slot =
  let cell = "c" ^ string_of_int ((slot / robots) + 1) in
  let store = Option.get (Nf2.Database.relation db "cells") in
  match Nf2.Relation.find store cell with
  | Some (Value.Tuple fields) -> (
    match List.assoc_opt "robots" fields with
    | Some (Value.List robot_values) -> (
      match List.nth robot_values (slot mod robots) with
      | Value.Tuple robot -> (
        match List.assoc_opt "trajectory" robot with
        | Some (Value.Str value) -> Some value
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The final database holds exactly the committed writes: the last
   committing writer's value, or the generator's initial one. *)
let database_matches db model =
  let mismatches = ref 0 in
  Array.iteri
    (fun slot writer ->
      let expected =
        if writer < 0 then "tr" ^ string_of_int ((slot mod robots) + 1)
        else trajectory_of_txn writer
      in
      if trajectory db ~slot <> Some expected then incr mismatches)
    model;
  !mismatches

let check_run report ~txns db table run =
  Report.check report (run.committed + run.failed = txns)
    (Printf.sprintf "disjoint: %d committed + %d failed <> %d transactions"
       run.committed run.failed txns);
  Report.check report (run.bad_rows = 0)
    (Printf.sprintf "disjoint: %d statement(s) returned the wrong row count"
       run.bad_rows);
  let mismatches = database_matches db run.model in
  Report.check report (mismatches = 0)
    (Printf.sprintf "disjoint: %d robot(s) differ from the committed writes"
       mismatches);
  Report.check report (Lockmgr.Lock_table.entry_count table = 0)
    "disjoint: lock table not empty at the end";
  Report.check report (Lockmgr.Lock_table.check_invariants table = [])
    "disjoint: lock table invariants violated"

(* --------------------------------------------------------------- untraced *)

let measure report ~seed ~seconds =
  let txns = work ~seconds in
  let per_segment = txns / segments in
  let script = script ~seed ~txns in
  let setups = Float.Array.make segments 0.0 in
  let raw_setups = Float.Array.make segments 0.0 in
  let kept = ref None and runs = ref [] in
  for segment = 0 to segments - 1 do
    kept := None;
    ignore (Measure.live_words () : int);
    let built, raw, normalized = Measure.time_normalized (fun () -> session seed) in
    Float.Array.set setups segment normalized;
    Float.Array.set raw_setups segment raw;
    kept := Some built;
    let run =
      run_clients (session_ops built) script ~first:(segment * per_segment)
        ~txns:per_segment ~batch_count:batches_per_segment
    in
    check_run report ~txns:per_segment (Session.database built)
      (Session.lock_table built) run;
    runs := run :: !runs
  done;
  let heap_mb = Measure.live_mb () in
  ignore (Sys.opaque_identity !kept);
  let runs = List.rev !runs in
  let sum field = List.fold_left (fun total run -> total + field run) 0 runs in
  let committed = sum (fun run -> run.committed) in
  let attempts = sum (fun run -> run.attempts) and failed = sum (fun run -> run.failed) in
  let batches = Measure.concat (List.map (fun run -> run.batches) runs) in
  let latencies = Float.Array.concat (List.map (fun run -> run.latencies_us) runs) in
  report.Report.attempted <- txns;
  report.Report.failed <- failed;
  Report.note
    "disjoint: %d txns in %d segments, %d statements, %d attempts, %.3f s \
     measured, latency samples %d (quantiles per batch of %d, median over %d \
     batches)"
    txns segments (sum (fun run -> run.statements)) attempts
    (List.fold_left (fun total run -> total +. run.seconds) 0.0 runs)
    committed (per_segment / batches_per_segment) batches.Measure.filled;
  Report.note_wall_clock batches ~setup_s:(Measure.median raw_setups);
  let metric = Report.metric report in
  metric "txn_per_s" ~unit:"1/s" (Measure.median_rate batches);
  let latency q = Measure.batched_quantile batches latencies q in
  metric "latency_p50_us" ~unit:"us" (latency 0.5);
  metric "latency_p99_us" ~unit:"us" (latency 0.99);
  metric "attempts_per_commit" ~unit:"ratio" (Report.ratio attempts committed);
  metric "response_mean_ticks" ~unit:"ticks"
    (Report.ratio (sum (fun run -> run.response_turns)) committed);
  metric "setup_s" ~unit:"s" (Measure.median setups);
  metric "heap_live_mb" ~unit:"MB" heap_mb

(* ----------------------------------------------------------------- traced *)

(* The session's components, built the way [Session.create] builds them,
   so the traced run can time each layer from outside. *)
let traced_stack spans seed =
  let scope = Spans.scope spans in
  let db = scope.within "setup.generate" (fun () -> generate seed) in
  scope.within "setup.index" (fun () -> index db);
  let graph =
    scope.within "setup.graph_build" (fun () -> Colock.Instance_graph.build db)
  in
  let table = Lockmgr.Lock_table.create () in
  let rights = Authz.Rights.create () in
  Authz.Rights.set_relation_default rights ~relation:"effectors" false;
  let protocol = Colock.Protocol.create ~rights graph table in
  let executor =
    scope.within "setup.executor_create" (fun () -> Executor.create db protocol)
  in
  let manager = Txn_manager.create protocol in
  let undo = Query.Undo.create () in
  Query.Undo.attach undo executor;
  (db, table, executor, manager, undo)

let traced_ops spans ~locks (executor, manager, undo) =
  let span = Spans.name spans in
  let parse = span "query.parse" and execute = span "query.execute" in
  let apply = span "query.apply_update" and begin_span = span "txn.begin" in
  let commit = span "txn.commit" and abort = span "txn.abort" in
  let run txn text =
    match Spans.wrap spans parse (fun () -> Query.Parser.parse text) with
    | Error error -> Error (Executor.Parse_error error)
    | Ok ast -> (
      match
        Spans.wrap spans execute (fun () ->
            Executor.run executor ~txn:txn.Txn.Transaction.id ast)
      with
      | Ok result ->
        locks := !locks + result.Executor.locks_requested;
        Ok result.Executor.rows
      | Error _ as error -> error)
  in
  { begin_txn = (fun () -> Spans.wrap spans begin_span (fun () -> Txn_manager.begin_txn manager));
    read = (fun txn text -> Result.map List.length (run txn text));
    update =
      (fun txn text transform ->
        match run txn text with
        | Error _ as error -> error
        | Ok rows ->
          List.fold_left
            (fun outcome row ->
              match outcome with
              | Error _ -> outcome
              | Ok count -> (
                match
                  Spans.wrap spans apply (fun () ->
                      Executor.apply_update executor ~txn:txn.Txn.Transaction.id row
                        transform)
                with
                | Ok () -> Ok (count + 1)
                | Error error -> Error (Executor.Database_error error)))
            (Ok 0) rows);
    commit =
      (fun txn ->
        Spans.wrap spans commit (fun () ->
            Query.Undo.forget undo ~txn:txn.Txn.Transaction.id;
            ignore (Txn_manager.commit manager txn : Lockmgr.Lock_table.grant list)));
    abort =
      (fun txn ->
        Spans.wrap spans abort (fun () ->
            (match Query.Undo.rollback undo ~txn:txn.Txn.Transaction.id executor with
             | Ok _undone -> ()
             | Error error ->
               failwith (Format.asprintf "abort: %a" Executor.pp_error error));
            ignore (Txn_manager.abort manager txn : Lockmgr.Lock_table.grant list))) }

(* The explicit requests of the captured stream: data modes on nodes that
   are not entry points. In this catalog the effector library is read-only,
   so every S on an entry point is a rule 4' downward propagation. *)
let explicit_requests graph ops =
  Array.fold_right
    (fun op requests ->
      match op with
      | Replay.Request { txn; resource; mode } when not (Lockmgr.Lock_mode.is_intention mode) ->
        let node = Replay.node_of_resource resource in
        if (Colock.Instance_graph.node_exn graph node).Colock.Instance_graph.entry_point
        then requests
        else (txn, node, mode) :: requests
      | Replay.Request _ | Replay.Finish _ -> requests)
    ops []

let trace report ~seed ~seconds =
  let txns = work ~seconds / 4 in
  let script = script ~seed ~txns in
  let metric name ~unit value = Report.metric report ("disjoint." ^ name) ~unit value in
  (* untraced: the reference rate, and the words the stack retains *)
  let plain_session = session seed in
  let before = Measure.live_words () in
  let run ops = run_clients ops script ~first:0 ~txns ~batch_count:batches_per_segment in
  let plain = run (session_ops plain_session) in
  let retained = Measure.live_words () - before in
  check_run report ~txns (Session.database plain_session)
    (Session.lock_table plain_session) plain;
  (* spans around every call, on the session's components *)
  let spans = Spans.create () in
  let locks = ref 0 in
  let db, table, executor, manager, undo = traced_stack spans seed in
  let spanned = run (traced_ops spans ~locks (executor, manager, undo)) in
  check_run report ~txns db table spanned;
  (* the lock-request stream, captured through a sink and replayed *)
  let capture = Replay.capture () in
  let captured_session = session ~obs:capture.Replay.sink seed in
  let captured = run (session_ops captured_session) in
  let captured_table = Session.lock_table captured_session in
  check_run report ~txns (Session.database captured_session) captured_table captured;
  let ops = Replay.ops capture in
  let graph = Session.graph captured_session in
  let replay_rights = Authz.Rights.create () in
  Authz.Rights.set_relation_default replay_rights ~relation:"effectors" false;
  let plans =
    Replay.protocol_plans spans
      (Colock.Protocol.create ~rights:replay_rights graph (Lockmgr.Lock_table.create ()))
      (explicit_requests graph ops)
  in
  Replay.object_lookups spans graph ops;
  let replayed, left =
    Replay.lock_table spans ~meta:(Colock.Instance_graph.lu_resolver graph) ops
  in
  let stats = Lockmgr.Lock_table.stats captured_table in
  Report.check report (Replay.stats_agree stats replayed && left = 0)
    "disjoint: the replayed lock table diverged from the captured run";
  Spans.write spans (Report.output_file "disjoint.spans.tsv");
  report.Report.attempted <- report.Report.attempted + (3 * txns);
  report.Report.failed <- report.Report.failed + plain.failed + spanned.failed + captured.failed;
  let rate run = Measure.median_rate run.batches in
  Report.note "disjoint: tracing overhead %+.1f%% with spans, %+.1f%% with the capture sink (%.0f txn/s untraced)"
    (100.0 *. ((rate plain /. rate spanned) -. 1.0))
    (100.0 *. ((rate plain /. rate captured) -. 1.0))
    (rate plain);
  let seconds label = Spans.self_seconds spans label in
  let mean label ~scale = Spans.mean_self spans label ~scale in
  metric "setup.generate_s" ~unit:"s" (seconds "setup.generate");
  metric "setup.index_s" ~unit:"s" (seconds "setup.index");
  metric "setup.graph_build_s" ~unit:"s" (seconds "setup.graph_build");
  metric "setup.executor_create_s" ~unit:"s" (seconds "setup.executor_create");
  metric "query.parse_us" ~unit:"us" (mean "query.parse" ~scale:1e6);
  metric "query.execute_us" ~unit:"us" (mean "query.execute" ~scale:1e6);
  metric "query.apply_update_us" ~unit:"us" (mean "query.apply_update" ~scale:1e6);
  metric "query.locks_per_stmt" ~unit:"count" (Report.ratio !locks spanned.statements);
  metric "txn.commit_us" ~unit:"us" (mean "txn.commit" ~scale:1e6);
  metric "txn.abort_us" ~unit:"us" (mean "txn.abort" ~scale:1e6);
  metric "txn.retained_words_per_txn" ~unit:"words" (Report.ratio retained plain.committed);
  metric "graph.object_node_ns" ~unit:"ns" (mean "graph.object_node" ~scale:1e9);
  metric "protocol.plan_us" ~unit:"us" (mean "protocol.plan" ~scale:1e6);
  metric "protocol.plan_steps" ~unit:"count" (Report.ratio plans.steps plans.calls);
  metric "protocol.downward_steps" ~unit:"count" (Report.ratio plans.downward plans.calls);
  metric "lockmgr.request_ns" ~unit:"ns" (mean "lockmgr.request" ~scale:1e9);
  metric "lockmgr.release_all_us" ~unit:"us" (mean "lockmgr.release_all" ~scale:1e6);
  metric "lockmgr.requests_per_txn" ~unit:"count" (Report.ratio stats.requests captured.committed);
  metric "lockmgr.conflict_tests_per_request" ~unit:"count"
    (Report.ratio stats.conflict_tests stats.requests);
  metric "lockmgr.waits_per_txn" ~unit:"count" (Report.ratio stats.waits captured.committed);
  metric "lockmgr.peak_entries" ~unit:"count"
    (float_of_int (Lockmgr.Lock_table.peak_entry_count captured_table))
