module Lock_mode = Lockmgr.Lock_mode
module Lock_table = Lockmgr.Lock_table
module Lock_stats = Lockmgr.Lock_stats

type escalation_result =
  | Escalated of {
      parent : Node_id.t;
      mode : Lock_mode.t;
      released_children : int;
    }
  | Escalation_blocked of { blockers : Lock_table.txn_id list }
  | Not_needed

let child_locks protocol ~txn ~parent =
  let graph = Protocol.graph protocol in
  let table = Protocol.table protocol in
  List.filter_map
    (fun child ->
      match
        Lock_table.held table ~txn
          ~resource:(Instance_graph.resource graph child)
      with
      | Lock_mode.NL -> None
      | held -> Some (child, held))
    (Instance_graph.children graph parent)

let maybe_escalate protocol ~txn ~threshold ~parent =
  let children = child_locks protocol ~txn ~parent in
  if List.length children <= threshold then Not_needed
  else begin
    let data_mode =
      List.fold_left
        (fun mode (_child, held) ->
          match held with
          | Lock_mode.X | Lock_mode.SIX -> Lock_mode.X
          | Lock_mode.IX -> Lock_mode.X
          | Lock_mode.S -> Lock_mode.sup mode Lock_mode.S
          | Lock_mode.IS -> Lock_mode.sup mode Lock_mode.S
          | Lock_mode.NL -> mode)
        Lock_mode.S children
    in
    match Protocol.acquire protocol ~txn ~wait:false parent data_mode with
    | Protocol.Blocked { blockers; _ } -> Escalation_blocked { blockers }
    | Protocol.Acquired _steps ->
      List.iter
        (fun (child, _held) ->
          let (_grants : Lock_table.grant list) =
            Protocol.release_node protocol ~txn child
          in
          ())
        children;
      let stats = Lock_table.stats (Protocol.table protocol) in
      stats.Lock_stats.escalations <- stats.Lock_stats.escalations + 1;
      let graph = Protocol.graph protocol in
      Protocol.emit protocol
        (Obs.Event.Escalation
           { txn; node = Instance_graph.resource graph parent;
             mode = Lock_mode.to_string data_mode;
             released_children = List.length children });
      Escalated
        { parent = Instance_graph.id graph parent; mode = data_mode;
          released_children = List.length children }
  end

let deescalate protocol ~txn node ~keep =
  let table = Protocol.table protocol in
  let rec acquire_keep = function
    | [] -> Ok ()
    | (child, mode) :: rest -> (
      match Protocol.acquire protocol ~txn ~wait:false child mode with
      | Protocol.Acquired _steps -> acquire_keep rest
      | Protocol.Blocked _ as blocked -> Error blocked)
  in
  match acquire_keep keep with
  | Error blocked -> Error blocked
  | Ok () ->
    let resource = Instance_graph.resource (Protocol.graph protocol) node in
    let held = Lock_table.held table ~txn ~resource in
    let weakened = Lock_mode.intention_for held in
    let grants = Lock_table.downgrade table ~txn ~resource weakened in
    let stats = Lock_table.stats table in
    stats.Lock_stats.deescalations <- stats.Lock_stats.deescalations + 1;
    Protocol.emit protocol
      (Obs.Event.Deescalation
         { txn; node = resource; mode = Lock_mode.to_string weakened });
    Ok grants
