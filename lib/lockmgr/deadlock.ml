module Int_map = Map.Make (Int)

let find_cycle ~edges =
  let successors =
    List.fold_left
      (fun accu (source, target) ->
        let known =
          match Int_map.find_opt source accu with
          | None -> []
          | Some targets -> targets
        in
        Int_map.add source (target :: known) accu)
      Int_map.empty edges
  in
  let successors_of node =
    match Int_map.find_opt node successors with
    | None -> []
    | Some targets -> List.sort_uniq Int.compare targets
  in
  let nodes =
    List.concat_map (fun (source, target) -> [ source; target ]) edges
    |> List.sort_uniq Int.compare
  in
  let finished = Hashtbl.create 16 in
  (* DFS keeping the trail (most recent first) plus a mirror set for O(1)
     membership, so detection stays near-linear on the long waiter chains
     chaos runs produce; a back edge into the trail closes a cycle. *)
  let on_trail = Hashtbl.create 16 in
  let rec visit trail node =
    if Hashtbl.mem on_trail node then
      let rec cycle_from accu = function
        | [] -> accu
        | head :: rest ->
          if head = node then head :: accu else cycle_from (head :: accu) rest
      in
      Some (cycle_from [] trail)
    else if Hashtbl.mem finished node then None
    else begin
      Hashtbl.add finished node ();
      Hashtbl.add on_trail node ();
      let found =
        List.fold_left
          (fun found successor ->
            match found with
            | Some _ -> found
            | None -> visit (node :: trail) successor)
          None (successors_of node)
      in
      Hashtbl.remove on_trail node;
      found
    end
  in
  List.fold_left
    (fun found node ->
      match found with Some _ -> found | None -> visit [] node)
    None nodes

let resolve table ~obs ~victim ~candidate ~abort ~requester =
  let rec loop () =
    match find_cycle ~edges:(Lock_table.waits_for_edges table) with
    | None -> false
    | Some cycle ->
      let stats = Lock_table.stats table in
      stats.Lock_stats.deadlocks <- stats.Lock_stats.deadlocks + 1;
      Option.iter
        (fun sink -> Obs.Sink.emit sink (Obs.Event.Deadlock_detected { cycle }))
        obs;
      let chosen = Policy.choose_victim victim (List.map candidate cycle) in
      abort chosen;
      chosen = requester || loop ()
  in
  loop ()
