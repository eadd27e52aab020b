(* The lock-request stream of a run, captured through an event sink, and
   its replay through the lower layers under spans.

   Replaying the requests and transaction ends in their original order on a
   fresh table reproduces the run's table states (granted groups, queues),
   so the per-call times reflect the workload's real group sizes. *)

module Mode = Lockmgr.Lock_mode
module Table = Lockmgr.Lock_table
module Graph = Colock.Instance_graph

type op =
  | Request of { txn : int; resource : string; mode : Mode.t }
  | Finish of { txn : int; aborted : bool }

type capture = { sink : Obs.Sink.t; recorded : op list ref (* newest first *) }

let capture () =
  let recorded = ref [] in
  let handle event =
    match event.Obs.Event.kind with
    | Obs.Event.Lock_requested { txn; resource; mode; _ } -> (
      match Mode.of_string mode with
      | Some mode -> recorded := Request { txn; resource; mode } :: !recorded
      | None -> failwith ("Replay: unknown mode " ^ mode))
    | Obs.Event.Txn_commit { txn } ->
      recorded := Finish { txn; aborted = false } :: !recorded
    | Obs.Event.Txn_abort { txn; _ }
    | Obs.Event.Victim_aborted { txn; _ }
    | Obs.Event.Timeout_abort { txn; _ }
    | Obs.Event.Contention_abort { txn; _ } ->
      recorded := Finish { txn; aborted = true } :: !recorded
    | _ -> ()
  in
  { sink = Obs.Sink.create [ handle ]; recorded }

let ops capture = Array.of_list (List.rev !(capture.recorded))

let node_of_resource resource =
  match Colock.Node_id.of_steps (String.split_on_char '/' resource) with
  | Some node -> node
  | None -> invalid_arg "Replay: empty resource"

(* Every request on a complex object or below: look its object up. *)
let object_lookups spans graph ops =
  let span = Spans.name spans "graph.object_node" in
  Array.iter
    (function
      | Request { resource; _ } -> (
        match String.split_on_char '/' resource with
        | _db :: _segment :: relation :: key :: _ ->
          let oid = Nf2.Oid.make ~relation ~key in
          let found = Spans.wrap spans span (fun () -> Graph.object_node graph oid) in
          if Option.is_none found then failwith ("Replay: no object " ^ resource)
        | _ -> ())
      | Finish _ -> ())
    ops

(* Replays the table calls; returns the replay table's statistics, which
   must agree with the original run's. *)
let lock_table spans ~meta ops =
  let request = Spans.name spans "lockmgr.request" in
  let release_all = Spans.name spans "lockmgr.release_all" in
  let table = Table.create ~meta () in
  Array.iter
    (function
      | Request { txn; resource; mode } ->
        ignore
          (Spans.wrap spans request (fun () -> Table.request table ~txn ~resource mode)
            : Table.outcome)
      | Finish { txn; aborted } ->
        if aborted then ignore (Table.cancel_wait table ~txn : Table.grant list);
        ignore
          (Spans.wrap spans release_all (fun () -> Table.release_all table ~txn)
            : Table.grant list))
    ops;
  (Table.stats table, Table.entry_count table)

type plans = { calls : int; steps : int; downward : int }

(* [Protocol.plan] for each given explicit request, under a span. *)
let protocol_plans spans protocol requests =
  let span = Spans.name spans "protocol.plan" in
  List.fold_left
    (fun totals (txn, node, mode) ->
      let plan =
        Spans.wrap spans span (fun () -> Colock.Protocol.plan protocol ~txn node mode)
      in
      let downward =
        List.length
          (List.filter
             (fun step -> step.Colock.Protocol.reason = Colock.Protocol.Downward_propagation)
             plan)
      in
      { calls = totals.calls + 1; steps = totals.steps + List.length plan;
        downward = totals.downward + downward })
    { calls = 0; steps = 0; downward = 0 }
    requests

let stats_agree (original : Lockmgr.Lock_stats.t) (replayed : Lockmgr.Lock_stats.t) =
  original.requests = replayed.requests && original.waits = replayed.waits
  && original.conflict_tests = replayed.conflict_tests
