(* LU annotations serialize flat ([lu], [depth]) so jq filters stay one
   level deep; absent tags produce no fields at all, keeping untagged
   streams byte-identical to pre-profiler captures. *)
let lu_fields = function
  | None -> []
  | Some { lu_kind; lu_depth } ->
    [ ("lu", Json.String lu_kind); ("depth", Json.Int lu_depth) ]

(* Holders serialize as a list of small objects; an empty list writes no
   field at all, so holder-free streams stay byte-identical to pre-blame
   captures. *)
let holder_fields = function
  | [] -> []
  | holders ->
    [ ( "holders",
        Json.List
          (List.map
             (fun { h_txn; h_mode; h_lu } ->
               Json.Obj
                 ([ ("txn", Json.Int h_txn); ("mode", Json.String h_mode) ]
                 @ lu_fields h_lu))
             holders) ) ]

let kind_fields = function
  | Lock_requested { txn; resource; mode; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode) ]
    @ lu_fields lu
  | Lock_granted { txn; resource; mode; immediate; lu; holders } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode); ("immediate", Json.Bool immediate) ]
    @ lu_fields lu @ holder_fields holders
  | Lock_waited { txn; resource; mode; blockers; lu; holders } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("mode", Json.String mode);
      ("blockers", Json.List (List.map (fun b -> Json.Int b) blockers)) ]
    @ lu_fields lu @ holder_fields holders
  | Lock_released { txn; resource; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource) ]
    @ lu_fields lu
  | Conversion { txn; resource; from_mode; to_mode; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("from", Json.String from_mode); ("to", Json.String to_mode) ]
    @ lu_fields lu
  | Escalation { txn; node; mode; released_children } ->
    [ ("txn", Json.Int txn); ("node", Json.String node);
      ("mode", Json.String mode);
      ("released_children", Json.Int released_children) ]
  | Deescalation { txn; node; mode } ->
    [ ("txn", Json.Int txn); ("node", Json.String node);
      ("mode", Json.String mode) ]
  | Deadlock_detected { cycle } ->
    [ ("cycle", Json.List (List.map (fun t -> Json.Int t) cycle)) ]
  | Victim_aborted { txn; restarts } ->
    [ ("txn", Json.Int txn); ("restarts", Json.Int restarts) ]
  | Timeout_abort { txn; resource; waited; lu } ->
    [ ("txn", Json.Int txn); ("resource", Json.String resource);
      ("waited", Json.Int waited) ]
    @ lu_fields lu
  | Txn_begin { txn } | Txn_commit { txn } -> [ ("txn", Json.Int txn) ]
  | Txn_abort { txn; reason } ->
    [ ("txn", Json.Int txn); ("reason", Json.String reason) ]
  | Query_executed { txn; query; rows; locks_requested } ->
    [ ("txn", Json.Int txn); ("query", Json.String query);
      ("rows", Json.Int rows); ("locks_requested", Json.Int locks_requested) ]
  | Sim_step { txn; step } ->
    [ ("txn", Json.Int txn); ("step", Json.Int step) ]
  | Waits_for { edges } ->
    [ ( "edges",
        Json.List
          (List.map
             (fun (waiter, blocker) ->
               Json.List [ Json.Int waiter; Json.Int blocker ])
             edges) ) ]
  | Run_meta { label } -> [ ("label", Json.String label) ]
  | Slo_breach { rule; value; threshold } ->
    [ ("rule", Json.String rule); ("value", Json.Float value);
      ("threshold", Json.Float threshold) ]
  | Admission { txn; priority; decision } ->
    [ ("txn", Json.Int txn); ("priority", Json.String priority);
      ("decision", Json.String decision) ]
  | Admission_limit { limit; inflight; queued; shed } ->
    [ ("limit", Json.Int limit); ("inflight", Json.Int inflight);
      ("queued", Json.Int queued); ("shed", Json.Int shed) ]
  | Breaker { from_state; to_state } ->
    [ ("from", Json.String from_state); ("to", Json.String to_state) ]
  | Retry_denied { txn; restarts } ->
    [ ("txn", Json.Int txn); ("restarts", Json.Int restarts) ]
  | Contention_abort { txn; policy; depth } ->
    [ ("txn", Json.Int txn); ("policy", Json.String policy);
      ("depth", Json.Int depth) ]

let to_json event =
  Json.Obj
    (("event", Json.String (name event.kind))
     :: ("time", Json.Float event.time)
     :: kind_fields event.kind)
