(* The offline serializability certifier: the independent oracle behind
   [colock certify] and the soak suite's [certify] stanza.

   The trace's grant/release stream is replayed into per-transaction
   attempt state; the three checks (conflict-serializability over the
   committed attempts, 2PL phase discipline with escalation-covered
   releases, rule 1-4' hierarchy coverage) never look at the lock
   manager's own data structures, only at the events it emitted — which
   is the point: a rewritten lock table can be cross-checked against the
   same certificates. *)

type modes = {
  m_known : string list;
  m_compatible : string -> string -> bool;
  m_sup : string -> string -> string;
  m_intention_for : string -> string;
  m_is_intention : string -> bool;
}

(* The classical matrices, over strings.  Unknown modes map to X so a
   fabricated trace conflicts with everything instead of slipping by. *)
let default_modes =
  let known = [ "NL"; "IS"; "IX"; "S"; "SIX"; "X" ] in
  let canon mode = if List.mem mode known then mode else "X" in
  let compatible a b =
    match canon a, canon b with
    | "NL", _ | _, "NL" -> true
    | "IS", ("IS" | "IX" | "S" | "SIX") | ("IX" | "S" | "SIX"), "IS" -> true
    | "IX", "IX" | "S", "S" -> true
    | _ -> false
  in
  let sup a b =
    match canon a, canon b with
    | "NL", other | other, "NL" -> other
    | "IS", other | other, "IS" -> other
    | "X", _ | _, "X" -> "X"
    | "IX", "IX" -> "IX"
    | "S", "S" -> "S"
    | "IX", "S" | "S", "IX" -> "SIX"
    | _ -> "SIX"
  in
  { m_known = known;
    m_compatible = compatible;
    m_sup = sup;
    m_intention_for =
      (fun mode ->
        match canon mode with
        | "NL" -> "NL"
        | "IS" | "S" -> "IS"
        | _ -> "IX");
    m_is_intention =
      (fun mode ->
        match canon mode with "IS" | "IX" | "SIX" -> true | _ -> false) }

let leq modes a b = String.equal (modes.m_sup a b) b

type access = {
  a_txn : int;
  a_resource : string;
  mutable a_mode : string;
  a_granted_seq : int;
  a_granted_time : float;
  mutable a_released_seq : int option;
  mutable a_released_time : float;
}

type edge = {
  e_from : int;
  e_to : int;
  e_count : int;
  e_resource : string;
  e_first : access;
  e_second : access;
}

type violation =
  | Unserializable of { cycle : int list; edges : edge list }
  | Phase_violation of {
      txn : int;
      released : string;
      released_seq : int;
      acquire : access;
    }
  | Concurrent_conflict of {
      resource : string;
      txn : int;
      mode : string;
      holder : int;
      holder_mode : string;
      seq : int;
      time : float;
    }
  | Uncovered_grant of {
      txn : int;
      resource : string;
      mode : string;
      parent : string;
      parent_mode : string option;
      seq : int;
      time : float;
    }
  | Escalation_violation of {
      txn : int;
      node : string;
      mode : string;
      detail : string;
      seq : int;
      time : float;
    }

type certificate = {
  label : string option;
  events : int;
  committed : int;
  aborted_attempts : int;
  graph_txns : int list;
  graph_edges : edge list Lazy.t;
  violations : violation list;
}

let certified certificate = certificate.violations = []

(* ------------------------------------------------------------ accumulator *)

(* A resource some event granted, interned once per run: its name, its
   path parent's record and the transactions holding it, with their
   modes. A grant finds its record by one lookup of the name; everything
   after goes by [id] or by pointer. [holders] is a generic table: its
   iteration order is the order in which one grant's conflicts with
   several holders are reported. *)
type resource = {
  id : int;
  name : string;
  parent : resource option;
  holders : (int, string) Hashtbl.t;
}

(* Per-transaction attempt state, keyed by resource id.  [held] mirrors
   the lock table across attempt boundaries (it empties through real
   release events); the rest resets when an abort marker closes the
   attempt. *)
type txn_state = {
  held : string Int_table.t;
  open_accesses : access Int_table.t;
  mutable closed_accesses : access list;
  mutable shrinking : (string * int) option;
      (* first uncovered release: resource, seq *)
  mutable pending_violations : violation list;  (* reversed; kept on commit *)
  mutable recent_releases : (string * string) list;
      (* releases since the transaction's last grant, newest first — the
         escalation audit's view of the absorbed children *)
  mutable recent_count : int;  (* the length of [recent_releases] *)
  mutable active : bool;  (* an attempt is underway *)
  mutable committed : bool;
}

type t = {
  modes : modes;
  txns : txn_state Int_table.t;
  resources : (string, resource) Hashtbl.t;
  mutable seq : int;
  mutable events : int;
  mutable last_time : float;
  mutable committed_accesses : access list;
  mutable committed_txns : int list;
  mutable aborted_attempts : int;
  mutable violations : violation list;  (* reversed *)
}

let create ?(modes = default_modes) () =
  { modes;
    txns = Int_table.create 64;
    resources = Hashtbl.create 256;
    seq = 0;
    events = 0;
    last_time = 0.0;
    committed_accesses = [];
    committed_txns = [];
    aborted_attempts = 0;
    violations = [] }

let txn_state certifier txn =
  match Int_table.find_opt certifier.txns txn with
  | Some state -> state
  | None ->
    let state =
      { held = Int_table.create 8;
        open_accesses = Int_table.create 8;
        closed_accesses = [];
        shrinking = None;
        pending_violations = [];
        recent_releases = [];
        recent_count = 0;
        active = false;
        committed = false }
    in
    Int_table.replace certifier.txns txn state;
    state

(* Grants and conversions intern; releases and escalation checks only
   look up, so an excerpt trace's stray release leaves no record. *)
let rec intern certifier name =
  match Hashtbl.find_opt certifier.resources name with
  | Some resource -> resource
  | None ->
    let parent = Option.map (intern certifier) (Resource.parent name) in
    let resource =
      { id = Hashtbl.length certifier.resources;
        name;
        parent;
        holders = Hashtbl.create 4 }
    in
    Hashtbl.replace certifier.resources name resource;
    resource

(* Is a release of [resource] at [mode] still covered by a strict
   ancestor the transaction holds — i.e. the escalation pattern (parent
   absorbed the children at a data mode at least as strong), which rule
   4' makes legal mid-growth? *)
let release_covered certifier state resource mode =
  let rec up = function
    | None -> false
    | Some parent -> (
      match Int_table.find_opt state.held parent.id with
      | Some parent_mode when leq certifier.modes mode parent_mode -> true
      | Some _ | None -> up parent.parent)
  in
  up resource.parent

let record certifier violation =
  certifier.violations <- violation :: certifier.violations

(* A grant both audits (concurrent incompatibility, hierarchy coverage,
   2PL phase) and advances the reconstruction (held modes, episodes). *)
let on_granted certifier ~seq ~time ~txn ~resource ~mode =
  let modes = certifier.modes in
  let state = txn_state certifier txn in
  state.active <- true;
  state.recent_releases <- [];
  state.recent_count <- 0;
  (* concurrent incompatible holders: a lock-manager defect *)
  Hashtbl.iter
    (fun holder holder_mode ->
      if holder <> txn && not (modes.m_compatible holder_mode mode) then
        record certifier
          (Concurrent_conflict
             { resource = resource.name;
               txn;
               mode;
               holder;
               holder_mode;
               seq;
               time }))
    resource.holders;
  (* rules 1-4': the path parent must carry the matching intention (or a
     data mode that already covers the grant outright) *)
  (match resource.parent with
   | None -> ()
   | Some parent ->
     let parent_mode = Int_table.find_opt state.held parent.id in
     let covered =
       match parent_mode with
       | None -> false
       | Some held ->
         leq modes (modes.m_intention_for mode) held || leq modes mode held
     in
     if not covered then
       record certifier
         (Uncovered_grant
            { txn;
              resource = resource.name;
              mode;
              parent = parent.name;
              parent_mode;
              seq;
              time }));
  (* 2PL: a grant that adds privilege after the first uncovered release *)
  let previous = Int_table.find_opt state.held resource.id in
  let new_privilege =
    match previous with
    | None -> true
    | Some held -> not (leq modes mode held)
  in
  let merged =
    match previous with Some held -> modes.m_sup held mode | None -> mode
  in
  Int_table.replace state.held resource.id merged;
  Hashtbl.replace resource.holders txn merged;
  let access =
    match Int_table.find_opt state.open_accesses resource.id with
    | Some access ->
      access.a_mode <- modes.m_sup access.a_mode mode;
      access
    | None ->
      let access =
        { a_txn = txn;
          a_resource = resource.name;
          a_mode = mode;
          a_granted_seq = seq;
          a_granted_time = time;
          a_released_seq = None;
          a_released_time = time }
      in
      Int_table.replace state.open_accesses resource.id access;
      access
  in
  if new_privilege then
    match state.shrinking with
    | Some (released, released_seq) ->
      state.pending_violations <-
        Phase_violation { txn; released; released_seq; acquire = access }
        :: state.pending_violations
    | None -> ()

let on_conversion certifier ~txn ~resource ~to_mode =
  (* the lock table emits the matching [Lock_granted] right after; the
     conversion itself only strengthens the reconstruction's modes *)
  let modes = certifier.modes in
  let state = txn_state certifier txn in
  let strengthened = function
    | Some held -> modes.m_sup held to_mode
    | None -> to_mode
  in
  Int_table.replace state.held resource.id
    (strengthened (Int_table.find_opt state.held resource.id));
  Hashtbl.replace resource.holders txn
    (strengthened (Hashtbl.find_opt resource.holders txn));
  match Int_table.find_opt state.open_accesses resource.id with
  | Some access -> access.a_mode <- modes.m_sup access.a_mode to_mode
  | None -> ()

let on_released certifier ~seq ~time ~txn ~name =
  let state = txn_state certifier txn in
  match Hashtbl.find_opt certifier.resources name with
  | None -> ()  (* never granted: tolerate truncated or excerpt traces *)
  | Some resource -> (
    match Int_table.find_opt state.held resource.id with
    | None -> ()  (* not held by this transaction: likewise *)
    | Some mode ->
      Int_table.remove state.held resource.id;
      Hashtbl.remove resource.holders txn;
      (match Int_table.find_opt state.open_accesses resource.id with
       | Some access ->
         access.a_released_seq <- Some seq;
         access.a_released_time <- time;
         Int_table.remove state.open_accesses resource.id;
         if state.active && not state.committed then
           state.closed_accesses <- access :: state.closed_accesses
       | None -> ());
      if state.recent_count < 4096 then begin
        state.recent_releases <- (name, mode) :: state.recent_releases;
        state.recent_count <- state.recent_count + 1
      end;
      if
        state.active && not state.committed
        && state.shrinking = None
        && not (release_covered certifier state resource mode)
      then state.shrinking <- Some (name, seq))

(* De-escalation weakens the node's hold in place: a genuine loss of
   privilege, so it ends the growing phase like an uncovered release. *)
let on_deescalation certifier ~seq ~txn ~node ~mode =
  let state = txn_state certifier txn in
  match Hashtbl.find_opt certifier.resources node with
  | Some resource when Int_table.mem state.held resource.id ->
    Int_table.replace state.held resource.id mode;
    Hashtbl.replace resource.holders txn mode;
    if state.active && not state.committed && state.shrinking = None then
      state.shrinking <- Some (node, seq)
  | Some _ | None -> ()

(* Audit an [Escalation] event against the supremum matrix: the parent
   must actually be held at (at least) the declared data mode, and that
   mode must cover the data requirement of every child lock it absorbed
   (X over IX/SIX/X children, S over IS/S — the matrix's floor-S fold). *)
let on_escalation certifier ~seq ~time ~txn ~node ~mode ~released_children =
  let modes = certifier.modes in
  let state = txn_state certifier txn in
  let fail detail =
    record certifier
      (Escalation_violation { txn; node; mode; detail; seq; time })
  in
  let held =
    match Hashtbl.find_opt certifier.resources node with
    | Some resource -> Int_table.find_opt state.held resource.id
    | None -> None
  in
  (match held with
   | None -> fail "escalated node is not held"
   | Some held when not (leq modes mode held) ->
     fail (Printf.sprintf "node held %s, weaker than declared %s" held mode)
   | Some _ -> ());
  if modes.m_is_intention mode then
    fail "escalation must land on a data mode (S or X), not an intention";
  let children =
    List.filteri
      (fun index _ -> index < released_children)
      (List.filter
         (fun (resource, _mode) -> Resource.is_strict_descendant ~ancestor:node resource)
         state.recent_releases)
  in
  if List.length children < released_children then
    fail
      (Printf.sprintf "claims %d absorbed child(ren), trace shows %d"
         released_children (List.length children));
  List.iter
    (fun (resource, child_mode) ->
      let required = if leq modes child_mode "S" then "S" else "X" in
      if not (leq modes required mode) then
        fail
          (Printf.sprintf "%s needs %s for child %s held %s" node required
             resource child_mode))
    children

(* An abort marker closes the attempt: its accesses and phase findings
   are discarded (aborted work never enters the serialization graph), but
   [held] survives — it empties through the release events the abort
   cleanup actually emitted. *)
let on_abort certifier txn =
  let state = txn_state certifier txn in
  if
    state.active
    || state.closed_accesses <> []
    || Int_table.length state.open_accesses > 0
  then certifier.aborted_attempts <- certifier.aborted_attempts + 1;
  Int_table.reset state.open_accesses;
  state.closed_accesses <- [];
  state.shrinking <- None;
  state.pending_violations <- [];
  state.recent_releases <- [];
  state.recent_count <- 0;
  state.active <- false

let on_commit certifier txn =
  let state = txn_state certifier txn in
  if not state.committed then begin
    state.committed <- true;
    certifier.committed_txns <- txn :: certifier.committed_txns;
    (* open episodes flush by reference: the trailing releases (the lock
       table releases after the commit event) still close them *)
    let flushed = ref state.closed_accesses in
    Int_table.iter
      (fun _resource access -> flushed := access :: !flushed)
      state.open_accesses;
    certifier.committed_accesses <-
      List.rev_append !flushed certifier.committed_accesses;
    certifier.violations <-
      List.rev_append (List.rev state.pending_violations) certifier.violations
  end;
  state.closed_accesses <- [];
  state.pending_violations <- [];
  state.shrinking <- None;
  state.active <- false

let handle certifier event =
  certifier.seq <- certifier.seq + 1;
  certifier.events <- certifier.events + 1;
  let seq = certifier.seq in
  let time = event.Event.time in
  certifier.last_time <- time;
  match event.Event.kind with
  | Event.Lock_granted { txn; resource; mode; _ } ->
    if not (String.equal mode "NL") then
      on_granted certifier ~seq ~time ~txn
        ~resource:(intern certifier resource) ~mode
  | Event.Conversion { txn; resource; to_mode; _ } ->
    on_conversion certifier ~txn ~resource:(intern certifier resource)
      ~to_mode
  | Event.Lock_released { txn; resource; _ } ->
    on_released certifier ~seq ~time ~txn ~name:resource
  | Event.Escalation { txn; node; mode; released_children } ->
    on_escalation certifier ~seq ~time ~txn ~node ~mode ~released_children
  | Event.Deescalation { txn; node; mode } ->
    on_deescalation certifier ~seq ~txn ~node ~mode
  | Event.Txn_begin { txn } -> (txn_state certifier txn).active <- true
  | Event.Txn_commit { txn } -> on_commit certifier txn
  | Event.Txn_abort { txn; _ }
  | Event.Victim_aborted { txn; _ }
  | Event.Timeout_abort { txn; _ }
  | Event.Contention_abort { txn; _ } ->
    on_abort certifier txn
  | Event.Lock_requested _ | Event.Lock_waited _ | Event.Deadlock_detected _
  | Event.Query_executed _ | Event.Sim_step _ | Event.Waits_for _
  | Event.Run_meta _ | Event.Slo_breach _ | Event.Admission _
  | Event.Admission_limit _ | Event.Breaker _ | Event.Retry_denied _ ->
    ()

(* ------------------------------------------------------- graph / cycles *)

module Int_map = Map.Make (Int)

(* Each committed episode at its grant seq, a distinct position in the
   run's stream: grant order in time linear in the run, not n log n. *)
let in_grant_order ~events accesses =
  let slots = Array.make (events + 1) None in
  List.iter
    (fun access -> slots.(access.a_granted_seq) <- Some access)
    accesses;
  slots

(* The all-pairs serialization graph: one edge per ordered committed pair,
   counting the conflicting episode pairs behind it and keeping the one
   with the smallest (first, second) grant seqs as witness.  Quadratic in
   the conflicting episodes per resource, so only reports and
   counterexamples build it.  The earlier episodes of a resource are
   bucketed by mode and an episode visits only the buckets it conflicts
   with, so compatible episodes (every reader of a hot resource) cost
   nothing; the witness is a minimum, so the visiting order is free. *)
let all_pairs_edges modes ~events accesses =
  let earlier = Hashtbl.create 256 in
  let edges = Hashtbl.create 256 in
  let precedes first second edge =
    first.a_granted_seq < edge.e_first.a_granted_seq
    || first.a_granted_seq = edge.e_first.a_granted_seq
       && second.a_granted_seq < edge.e_second.a_granted_seq
  in
  let add first second =
    let key = (first.a_txn, second.a_txn) in
    Hashtbl.replace edges key
      (match Hashtbl.find_opt edges key with
       | None ->
         { e_from = first.a_txn;
           e_to = second.a_txn;
           e_count = 1;
           e_resource = second.a_resource;
           e_first = first;
           e_second = second }
       | Some edge when precedes first second edge ->
         { edge with
           e_count = edge.e_count + 1;
           e_resource = second.a_resource;
           e_first = first;
           e_second = second }
       | Some edge -> { edge with e_count = edge.e_count + 1 })
  in
  Array.iter
    (function
      | None -> ()
      | Some second -> (
        let buckets =
          Option.value ~default:[]
            (Hashtbl.find_opt earlier second.a_resource)
        in
        List.iter
          (fun (mode, firsts) ->
            if not (modes.m_compatible mode second.a_mode) then
              List.iter
                (fun first ->
                  if first.a_txn <> second.a_txn then add first second)
                !firsts)
          buckets;
        match List.assoc_opt second.a_mode buckets with
        | Some firsts -> firsts := second :: !firsts
        | None ->
          Hashtbl.replace earlier second.a_resource
            ((second.a_mode, ref [ second ]) :: buckets)))
    (in_grant_order ~events accesses);
  Hashtbl.fold (fun _key edge accu -> edge :: accu) edges []
  |> List.sort (fun a b ->
         match Int.compare a.e_from b.e_from with
         | 0 -> Int.compare a.e_to b.e_to
         | order -> order)

(* The conflict-frontier graph over dense node ids: the all-pairs graph's
   cycles from a subset of its edges, usually fewer than the episodes (S
   and IX alternating on one resource keep each other's buckets, see
   DESIGN.md).  Per resource, in grant order, the frontier keeps one
   bucket of transactions per mode.  A new episode (txn [t], mode [m])
   takes an edge from every entry of each bucket [c] that conflicts with
   [m], then empties [c] if [m] dominates it: every mode conflicting with
   [c] also conflicts with [m].  A later episode that conflicts with a
   dropped entry therefore conflicts with [t] (or with whatever dominated
   [t] in turn), so every all-pairs edge is a frontier path, and every
   frontier edge is an all-pairs edge. *)
let frontier_successors modes ~events node_of nodes accesses =
  let mode_ids = Hashtbl.create 8 in
  List.iter
    (fun access ->
      if not (Hashtbl.mem mode_ids access.a_mode) then
        Hashtbl.replace mode_ids access.a_mode (Hashtbl.length mode_ids))
    accesses;
  let names = Array.make (Hashtbl.length mode_ids) "" in
  Hashtbl.iter (fun name id -> names.(id) <- name) mode_ids;
  let count = Array.length names in
  let conflict =
    Array.map
      (fun c -> Array.map (fun m -> not (modes.m_compatible c m)) names)
      names
  in
  let dominated =
    Array.init count (fun c ->
        Array.init count (fun m ->
            Array.for_all2
              (fun by_c by_m -> (not by_c) || by_m)
              conflict.(c) conflict.(m)))
  in
  let frontiers = Hashtbl.create 256 in
  let successors = Array.make nodes [] in
  Array.iter
    (function
      | None -> ()
      | Some access ->
        let buckets =
          match Hashtbl.find_opt frontiers access.a_resource with
          | Some buckets -> buckets
          | None ->
            let buckets = Array.make count [] in
            Hashtbl.replace frontiers access.a_resource buckets;
            buckets
        in
        let t = node_of access.a_txn
        and m = Hashtbl.find mode_ids access.a_mode in
        for c = 0 to count - 1 do
          if conflict.(c).(m) then begin
            List.iter
              (fun source ->
                if source <> t then
                  successors.(source) <- t :: successors.(source))
              buckets.(c);
            if dominated.(c).(m) then buckets.(c) <- []
          end
        done;
        buckets.(m) <- t :: buckets.(m))
    (in_grant_order ~events accesses);
  successors

(* Kahn's algorithm: the in-degrees left once nodes without predecessors
   have been removed until none remain.  A node keeps a positive in-degree
   iff it lies on a cycle or downstream of one.  Iterative, because
   whole-object runs make conflict chains as long as the run. *)
let residual_indegrees successors =
  let indegree = Array.make (Array.length successors) 0 in
  Array.iter
    (List.iter (fun target -> indegree.(target) <- indegree.(target) + 1))
    successors;
  let ready = Stack.create () in
  Array.iteri
    (fun node degree -> if degree = 0 then Stack.push node ready)
    indegree;
  while not (Stack.is_empty ready) do
    List.iter
      (fun target ->
        indegree.(target) <- indegree.(target) - 1;
        if indegree.(target) = 0 then Stack.push target ready)
      successors.(Stack.pop ready)
  done;
  indegree

(* [None] when the serialization graph is acyclic; otherwise the
   transactions on or downstream of a cycle, the only ones a search for a
   cycle back to its start can succeed from. *)
let cycle_suspects modes ~events txns accesses =
  let node_of = Hashtbl.create 64 in
  List.iteri (fun node txn -> Hashtbl.replace node_of txn node) txns;
  let indegree =
    residual_indegrees
      (frontier_successors modes ~events (Hashtbl.find node_of)
         (List.length txns) accesses)
  in
  if Array.for_all (fun degree -> degree = 0) indegree then None
  else Some (fun txn -> indegree.(Hashtbl.find node_of txn) > 0)

(* Shortest cycle through any node satisfying [from] (BFS from each,
   looking for a path back to the start), deterministically smallest
   under (length, nodes). *)
let minimal_cycle ~from edges =
  let adjacency =
    List.fold_left
      (fun map edge ->
        Int_map.update edge.e_from
          (function
            | Some targets -> Some (edge.e_to :: targets)
            | None -> Some [ edge.e_to ])
          map)
      Int_map.empty edges
  in
  let shortest_from start =
    let parents = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add start queue;
    Hashtbl.replace parents start start;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      List.iter
        (fun next ->
          if !found = None then
            if next = start then begin
              (* walk back from [node] to [start] *)
              let rec back node accu =
                if node = start then node :: accu
                else back (Hashtbl.find parents node) (node :: accu)
              in
              found := Some (back node [])
            end
            else if not (Hashtbl.mem parents next) then begin
              Hashtbl.replace parents next node;
              Queue.add next queue
            end)
        (List.rev (Option.value ~default:[] (Int_map.find_opt node adjacency)))
    done;
    !found
  in
  Int_map.fold
    (fun start _targets best ->
      match if from start then shortest_from start else None with
      | None -> best
      | Some cycle -> (
        match best with
        | Some existing when List.compare_lengths existing cycle <= 0 -> best
        | _ -> Some cycle))
    adjacency None

let violation_seq = function
  | Unserializable _ -> max_int
  | Phase_violation { acquire; _ } -> acquire.a_granted_seq
  | Concurrent_conflict { seq; _ }
  | Uncovered_grant { seq; _ }
  | Escalation_violation { seq; _ } ->
    seq

let finish ?label certifier =
  Int_table.iter
    (fun _txn state ->
      Int_table.iter
        (fun _resource access ->
          access.a_released_time <- certifier.last_time)
        state.open_accesses)
    certifier.txns;
  let modes = certifier.modes and events = certifier.seq in
  let accesses = certifier.committed_accesses in
  let graph_edges = lazy (all_pairs_edges modes ~events accesses) in
  let cycle_violation =
    match cycle_suspects modes ~events certifier.committed_txns accesses with
    | None -> []
    | Some suspect -> (
      let edges = Lazy.force graph_edges in
      match minimal_cycle ~from:suspect edges with
      | None -> []
      | Some cycle ->
        let edge_between source target =
          List.find
            (fun edge -> edge.e_from = source && edge.e_to = target)
            edges
        in
        let rec along = function
          | first :: (second :: _ as rest) ->
            edge_between first second :: along rest
          | [ last ] -> [ edge_between last (List.hd cycle) ]
          | [] -> []
        in
        [ Unserializable { cycle; edges = along cycle } ])
  in
  let violations =
    List.stable_sort
      (fun a b -> Int.compare (violation_seq a) (violation_seq b))
      (List.rev certifier.violations)
    @ cycle_violation
  in
  { label;
    events = certifier.events;
    committed = List.length certifier.committed_txns;
    aborted_attempts = certifier.aborted_attempts;
    graph_txns = List.sort Int.compare certifier.committed_txns;
    graph_edges;
    violations }

let of_events ?modes ?label events =
  let certifier = create ?modes () in
  List.iter (handle certifier) events;
  finish ?label certifier

(* ------------------------------------------------------------ rendering *)

let pp_access formatter access =
  Format.fprintf formatter "T%d %s on %s (granted #%d @%g%t)" access.a_txn
    access.a_mode access.a_resource access.a_granted_seq access.a_granted_time
    (fun formatter ->
      match access.a_released_seq with
      | Some seq -> Format.fprintf formatter ", released #%d" seq
      | None -> Format.fprintf formatter ", held to end")

let pp_violation formatter = function
  | Unserializable { cycle; edges } ->
    Format.fprintf formatter "@[<v2>not serializable: conflict cycle %s:"
      (String.concat " -> "
         (List.map (Printf.sprintf "T%d") (cycle @ [ List.hd cycle ])));
    List.iter
      (fun edge ->
        Format.fprintf formatter
          "@,T%d -> T%d via %s: %a, then %a%s" edge.e_from edge.e_to
          edge.e_resource pp_access edge.e_first pp_access edge.e_second
          (if edge.e_count > 1 then
             Printf.sprintf " (+%d more conflict(s))" (edge.e_count - 1)
           else ""))
      edges;
    Format.fprintf formatter "@]"
  | Phase_violation { txn; released; released_seq; acquire } ->
    Format.fprintf formatter
      "not two-phase: T%d acquired %s on %s (#%d) after releasing %s (#%d)"
      txn acquire.a_mode acquire.a_resource acquire.a_granted_seq released
      released_seq
  | Concurrent_conflict { resource; txn; mode; holder; holder_mode; seq; _ } ->
    Format.fprintf formatter
      "conflicting grants held at once on %s: T%d granted %s (#%d) while \
       T%d holds %s"
      resource txn mode seq holder holder_mode
  | Uncovered_grant { txn; resource; mode; parent; parent_mode; seq; _ } ->
    Format.fprintf formatter
      "hierarchy: T%d granted %s on %s (#%d) but parent %s %s" txn mode
      resource seq parent
      (match parent_mode with
       | Some held -> Printf.sprintf "holds only %s" held
       | None -> "is not locked")
  | Escalation_violation { txn; node; mode; detail; seq; _ } ->
    Format.fprintf formatter "escalation: T%d to %s on %s (#%d): %s" txn mode
      node seq detail

let pp formatter certificate =
  (match certificate.label with
   | Some label -> Format.fprintf formatter "=== certificate: %s ===@," label
   | None -> Format.fprintf formatter "=== certificate ===@,");
  Format.fprintf formatter
    "events %d  committed %d  aborted attempt(s) %d@,"
    certificate.events certificate.committed certificate.aborted_attempts;
  Format.fprintf formatter "serialization graph: %d txn(s), %d edge(s)@,"
    (List.length certificate.graph_txns)
    (List.length (Lazy.force certificate.graph_edges));
  match certificate.violations with
  | [] ->
    Format.fprintf formatter
      "CERTIFIED: conflict-serializable, two-phase, hierarchy-compliant \
       (rules 1-4')"
  | violations ->
    List.iter
      (fun violation ->
        Format.fprintf formatter "VIOLATION %a@," pp_violation violation)
      violations;
    Format.fprintf formatter "NOT CERTIFIED: %d violation(s)"
      (List.length violations)

let print channel certificate =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@." (fun fmt -> pp fmt) certificate

(* ----------------------------------------------------------------- json *)

let json_of_access access =
  Json.Obj
    [ ("txn", Json.Int access.a_txn);
      ("resource", Json.String access.a_resource);
      ("mode", Json.String access.a_mode);
      ("granted_seq", Json.Int access.a_granted_seq);
      ("granted_time", Json.Float access.a_granted_time);
      ( "released_seq",
        match access.a_released_seq with
        | Some seq -> Json.Int seq
        | None -> Json.Null ) ]

let json_of_edge edge =
  Json.Obj
    [ ("from", Json.Int edge.e_from);
      ("to", Json.Int edge.e_to);
      ("conflicts", Json.Int edge.e_count);
      ("resource", Json.String edge.e_resource);
      ("first", json_of_access edge.e_first);
      ("second", json_of_access edge.e_second) ]

let json_of_violation violation =
  let kind name fields = Json.Obj (("kind", Json.String name) :: fields) in
  match violation with
  | Unserializable { cycle; edges } ->
    kind "unserializable"
      [ ("cycle", Json.List (List.map (fun txn -> Json.Int txn) cycle));
        ("edges", Json.List (List.map json_of_edge edges)) ]
  | Phase_violation { txn; released; released_seq; acquire } ->
    kind "phase_violation"
      [ ("txn", Json.Int txn);
        ("released", Json.String released);
        ("released_seq", Json.Int released_seq);
        ("acquire", json_of_access acquire) ]
  | Concurrent_conflict { resource; txn; mode; holder; holder_mode; seq; time }
    ->
    kind "concurrent_conflict"
      [ ("resource", Json.String resource);
        ("txn", Json.Int txn);
        ("mode", Json.String mode);
        ("holder", Json.Int holder);
        ("holder_mode", Json.String holder_mode);
        ("seq", Json.Int seq);
        ("time", Json.Float time) ]
  | Uncovered_grant { txn; resource; mode; parent; parent_mode; seq; time } ->
    kind "uncovered_grant"
      [ ("txn", Json.Int txn);
        ("resource", Json.String resource);
        ("mode", Json.String mode);
        ("parent", Json.String parent);
        ( "parent_mode",
          match parent_mode with
          | Some held -> Json.String held
          | None -> Json.Null );
        ("seq", Json.Int seq);
        ("time", Json.Float time) ]
  | Escalation_violation { txn; node; mode; detail; seq; time } ->
    kind "escalation_violation"
      [ ("txn", Json.Int txn);
        ("node", Json.String node);
        ("mode", Json.String mode);
        ("detail", Json.String detail);
        ("seq", Json.Int seq);
        ("time", Json.Float time) ]

let to_json certificate =
  Json.Obj
    [ ( "label",
        match certificate.label with
        | Some label -> Json.String label
        | None -> Json.Null );
      ("events", Json.Int certificate.events);
      ("committed", Json.Int certificate.committed);
      ("aborted_attempts", Json.Int certificate.aborted_attempts);
      ("certified", Json.Bool (certified certificate));
      ( "graph",
        Json.Obj
          [ ( "txns",
              Json.List
                (List.map (fun txn -> Json.Int txn) certificate.graph_txns) );
            ( "edges",
              Json.List
                (List.map json_of_edge (Lazy.force certificate.graph_edges)) )
          ] );
      ( "violations",
        Json.List (List.map json_of_violation certificate.violations) ) ]
