let log_src = Logs.Src.create "lockmgr.table" ~doc:"lock table decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type txn_id = int
type duration = Short | Long

type waiter = {
  w_txn : txn_id;
  w_mode : Lock_mode.t;  (* target mode (for conversions: the converted mode) *)
  w_duration : duration;
  w_conversion : bool;
  w_holders : Obs.Event.holder list;
      (* the granted group that blocked this request at enqueue time, so the
         eventual queue-served grant can report who it was stuck behind;
         only events read it, so an untraced table leaves it empty *)
}

type entry = {
  resource : string;
  mutable granted : (txn_id * Lock_mode.t * duration) list;
      (* at most one triple per transaction *)
  mutable waiting : waiter list;  (* FIFO, head served first *)
  mutable lu : Obs.Event.lu option;  (* the kept tag; [None] until resolved *)
}

module Entries = Hashtbl.Make (String)
module Txns = Obs.Int_table

type held_entries = { mutable held : entry list }
(* the entries where a transaction holds or waits, each once, in no
   particular order *)

type t = {
  entries : entry Entries.t;
  by_txn : held_entries Txns.t;
  stats : Lock_stats.t;
  mutable entry_count : int;
  mutable peak_entry_count : int;
  obs : Obs.Sink.t option;
  mutable meta : string -> Obs.Event.lu option;
      (* resolves a resource to its lockable-unit annotation; the table is
         protocol-agnostic, so whoever owns the lock graph installs this *)
}

type outcome = Granted | Waiting of txn_id list
type grant = { g_txn : txn_id; g_resource : string; g_mode : Lock_mode.t }

let create ?obs ?(meta = fun _resource -> None) () =
  { entries = Entries.create 256; by_txn = Txns.create 64;
    stats = Lock_stats.create (); entry_count = 0; peak_entry_count = 0; obs;
    meta }

let stats table = table.stats
let obs table = table.obs

let set_meta table meta =
  table.meta <- meta;
  Entries.iter (fun _resource entry -> entry.lu <- None) table.entries

let resource_lu table resource = table.meta resource

(* Every emitting site tests [traced] first, so an untraced table builds no
   event payload: no mode string, no [meta] lookup, no record. *)
let traced table = Option.is_some table.obs

let emit table kind =
  match table.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink kind

(* The entry's lockable-unit tag: resolved at its first traced event and
   kept for its later ones until [set_meta] installs another resolver. An
   unresolved tag is asked for again, so a future node locked by name gets
   its tag once it exists. *)
let entry_lu table entry =
  match entry.lu with
  | Some _ as kept -> kept
  | None ->
    let lu = table.meta entry.resource in
    entry.lu <- lu;
    lu

let entry_of table resource =
  match Entries.find_opt table.entries resource with
  | Some entry -> entry
  | None ->
    let entry = { resource; granted = []; waiting = []; lu = None } in
    Entries.add table.entries resource entry;
    entry

(* Called where [txn] joins [entry]: a fresh grant that was not queued, or
   an enqueue while it holds nothing there. A queue-served grant was
   indexed when it queued. *)
let index_txn table txn entry =
  match Txns.find_opt table.by_txn txn with
  | Some locks -> locks.held <- entry :: locks.held
  | None -> Txns.add table.by_txn txn { held = [ entry ] }

let present entry txn =
  List.exists (fun (holder, _mode, _duration) -> holder = txn) entry.granted
  || List.exists (fun waiter -> waiter.w_txn = txn) entry.waiting

let set_held table txn = function
  | [] -> Txns.remove table.by_txn txn
  | held -> (Txns.find table.by_txn txn).held <- held

let unindex_txn table txn entry =
  if not (present entry txn) then
    match Txns.find_opt table.by_txn txn with
    | None -> ()
    | Some locks ->
      set_held table txn (List.filter (fun other -> other != entry) locks.held)

let drop_entry_if_empty table entry =
  match entry.granted, entry.waiting with
  | [], [] -> Entries.remove table.entries entry.resource
  | _, _ -> ()

let held_triple entry txn =
  List.find_opt (fun (holder, _mode, _duration) -> holder = txn) entry.granted

(* Conflict test against every *other* holder; counts each test. *)
let compatible_with_others table entry txn mode =
  List.for_all
    (fun (holder, held_mode, _duration) ->
      if holder = txn then true
      else begin
        table.stats.Lock_stats.conflict_tests <-
          table.stats.Lock_stats.conflict_tests + 1;
        Lock_mode.compatible mode held_mode
      end)
    entry.granted

let incompatible_holders entry txn mode =
  List.filter_map
    (fun (holder, held_mode, _duration) ->
      if holder <> txn && not (Lock_mode.compatible mode held_mode) then
        Some (holder, held_mode)
      else None)
    entry.granted
  |> List.sort compare

(* The incompatible granted group as event payload: txn, held mode, and the
   resource's lockable-unit annotation. *)
let holder_payload table entry incompatible =
  let lu = entry_lu table entry in
  List.map
    (fun (holder, held_mode) ->
      { Obs.Event.h_txn = holder; h_mode = Lock_mode.to_string held_mode;
        h_lu = lu })
    incompatible

let sup_duration a b =
  match a, b with Long, _ | _, Long -> Long | Short, Short -> Short

(* Grants [mode] to [txn] on [entry]: merged into the lock it holds
   ([held], its triple), or a fresh triple, indexed unless the request was
   queued (and so indexed). *)
let install_grant table entry txn mode duration ~held ~queued =
  match held with
  | Some (_txn, old_mode, old_duration) ->
    entry.granted <-
      List.map
        (fun ((holder, _m, _d) as triple) ->
          if holder = txn then
            (txn, Lock_mode.sup old_mode mode, sup_duration old_duration duration)
          else triple)
        entry.granted;
    if not (Lock_mode.leq mode old_mode) then begin
      table.stats.Lock_stats.conversions <-
        table.stats.Lock_stats.conversions + 1;
      if traced table then
        emit table
          (Obs.Event.Conversion
             { txn; resource = entry.resource;
               from_mode = Lock_mode.to_string old_mode;
               to_mode = Lock_mode.to_string (Lock_mode.sup old_mode mode);
               lu = entry_lu table entry })
    end
  | None ->
    entry.granted <- (txn, mode, duration) :: entry.granted;
    table.entry_count <- table.entry_count + 1;
    if table.entry_count > table.peak_entry_count then
      table.peak_entry_count <- table.entry_count;
    if not queued then index_txn table txn entry

(* Serve the queue head(s) after a release/downgrade.  Conversions were
   enqueued in front, so plain head-of-queue draining preserves both upgrade
   priority and FIFO fairness. *)
let drain table entry =
  let rec serve served =
    match entry.waiting with
    | [] -> served
    | head :: rest ->
      if compatible_with_others table entry head.w_txn head.w_mode then begin
        entry.waiting <- rest;
        install_grant table entry head.w_txn head.w_mode head.w_duration
          ~held:(held_triple entry head.w_txn) ~queued:true;
        serve
          (( { g_txn = head.w_txn; g_resource = entry.resource;
               g_mode = head.w_mode },
             head.w_holders )
          :: served)
      end
      else served
  in
  let served = List.rev (serve []) in
  drop_entry_if_empty table entry;
  if traced table then
    List.iter
      (fun (grant, holders) ->
        emit table
          (Obs.Event.Lock_granted
             { txn = grant.g_txn; resource = grant.g_resource;
               mode = Lock_mode.to_string grant.g_mode; immediate = false;
               lu = entry_lu table entry; holders }))
      served;
  List.map fst served

let enqueue entry waiter =
  if waiter.w_conversion then begin
    (* Conversions go before plain requests but after earlier conversions. *)
    let conversions, plain =
      List.partition (fun queued -> queued.w_conversion) entry.waiting
    in
    entry.waiting <- conversions @ [ waiter ] @ plain
  end
  else entry.waiting <- entry.waiting @ [ waiter ]

let already_waiting entry txn =
  List.exists (fun waiter -> waiter.w_txn = txn) entry.waiting

let request table ~txn ?(wait = true) ?(duration = Short) ~resource mode =
  table.stats.Lock_stats.requests <- table.stats.Lock_stats.requests + 1;
  let entry = entry_of table resource in
  if traced table then
    emit table
      (Obs.Event.Lock_requested
         { txn; resource; mode = Lock_mode.to_string mode;
           lu = entry_lu table entry });
  let held = held_triple entry txn in
  let current =
    match held with
    | Some (_txn, held_mode, _duration) -> held_mode
    | None -> Lock_mode.NL
  in
  let target = Lock_mode.sup current mode in
  if Lock_mode.equal target current then begin
    (* Already covered; refresh duration (a long request must stick). *)
    if duration = Long then
      install_grant table entry txn current Long ~held
        ~queued:(already_waiting entry txn);
    table.stats.Lock_stats.immediate_grants <-
      table.stats.Lock_stats.immediate_grants + 1;
    if traced table then
      emit table
        (Obs.Event.Lock_granted
           { txn; resource; mode = Lock_mode.to_string current;
             immediate = true; lu = entry_lu table entry; holders = [] });
    drop_entry_if_empty table entry;
    Granted
  end
  else begin
    let conversion = not (Lock_mode.equal current Lock_mode.NL) in
    let queued = already_waiting entry txn in
    let fifo_blocked = (not conversion) && entry.waiting <> [] && not queued in
    if
      (not fifo_blocked) && (not queued)
      && compatible_with_others table entry txn target
    then begin
      install_grant table entry txn target duration ~held ~queued:false;
      table.stats.Lock_stats.immediate_grants <-
        table.stats.Lock_stats.immediate_grants + 1;
      if traced table then
        emit table
          (Obs.Event.Lock_granted
             { txn; resource; mode = Lock_mode.to_string target;
               immediate = true; lu = entry_lu table entry; holders = [] });
      Log.debug (fun log ->
          log "T%d granted %s on %s" txn (Lock_mode.to_string target) resource);
      Granted
    end
    else begin
      let incompatible = incompatible_holders entry txn target in
      let blockers =
        match incompatible with
        | [] ->
          (* Blocked by the FIFO rule only: we wait for whoever waits ahead. *)
          List.filter_map
            (fun waiter -> if waiter.w_txn <> txn then Some waiter.w_txn else None)
            entry.waiting
        | incompatible -> List.map fst incompatible
      in
      let blockers = List.sort_uniq Int.compare blockers in
      (* A request that may not wait leaves no trace beyond its request and
         conflict-test counts: nothing is queued and no wait is counted. *)
      if wait then begin
        table.stats.Lock_stats.waits <- table.stats.Lock_stats.waits + 1;
        Log.debug (fun log ->
            log "T%d waits for %s on %s" txn (Lock_mode.to_string target)
              resource);
        let holders =
          if traced table then holder_payload table entry incompatible
          else []
        in
        if not queued then begin
          enqueue entry
            { w_txn = txn; w_mode = target; w_duration = duration;
              w_conversion = conversion; w_holders = holders };
          (* a holder, converting or not, is indexed already *)
          if Option.is_none held then index_txn table txn entry
        end;
        if traced table then
          emit table
            (Obs.Event.Lock_waited
               { txn; resource; mode = Lock_mode.to_string target; blockers;
                 lu = entry_lu table entry; holders })
      end;
      Waiting blockers
    end
  end

(* Drops the lock [txn] holds on [entry]; the caller checked it holds one. *)
let ungrant table entry txn =
  entry.granted <-
    List.filter (fun (holder, _mode, _duration) -> holder <> txn) entry.granted;
  table.entry_count <- table.entry_count - 1;
  table.stats.Lock_stats.releases <- table.stats.Lock_stats.releases + 1;
  if traced table then
    emit table
      (Obs.Event.Lock_released
         { txn; resource = entry.resource; lu = entry_lu table entry })

let release table ~txn ~resource =
  match Entries.find_opt table.entries resource with
  | None -> []
  | Some entry ->
    if Option.is_some (held_triple entry txn) then ungrant table entry txn;
    let served = drain table entry in
    unindex_txn table txn entry;
    served

let downgrade table ~txn ~resource mode =
  match Entries.find_opt table.entries resource with
  | None -> []
  | Some entry -> (
    match held_triple entry txn with
    | None -> []
    | Some (_txn, held_mode, duration) ->
      if Lock_mode.leq held_mode mode then []
      else begin
        entry.granted <-
          List.map
            (fun ((holder, _m, _d) as triple) ->
              if holder = txn then (txn, mode, duration) else triple)
            entry.granted;
        drain table entry
      end)

let by_resource a b = String.compare a.resource b.resource

let entries_of table txn =
  match Txns.find_opt table.by_txn txn with
  | None -> []
  | Some locks -> locks.held

(* The one withdrawal loop: on every entry of [txn], in resource order (the
   order of the returned grants and of the events), drop its queued request
   and the lock it holds when [drops] selects that lock's duration, then
   serve the queue; the index then keeps the entries [txn] is still on. *)
let withdraw table ~txn drops =
  let entries = List.sort by_resource (entries_of table txn) in
  let served =
    List.concat_map
      (fun entry ->
        let dropped_wait = already_waiting entry txn in
        if dropped_wait then
          entry.waiting <-
            List.filter (fun waiter -> waiter.w_txn <> txn) entry.waiting;
        let dropped_grant =
          match held_triple entry txn with
          | Some (_txn, _mode, duration) -> drops duration
          | None -> false
        in
        if dropped_grant then ungrant table entry txn;
        if dropped_wait || dropped_grant then drain table entry else [])
      entries
  in
  (match entries with
   | [] -> ()
   | _ :: _ ->
     set_held table txn (List.filter (fun entry -> present entry txn) entries));
  served

let cancel_wait table ~txn = withdraw table ~txn (fun _duration -> false)
let release_all table ~txn = withdraw table ~txn (fun _duration -> true)

let release_short table ~txn =
  withdraw table ~txn (fun duration -> duration = Short)

let held table ~txn ~resource =
  match Entries.find_opt table.entries resource with
  | None -> Lock_mode.NL
  | Some entry -> (
    match held_triple entry txn with
    | Some (_txn, mode, _duration) -> mode
    | None -> Lock_mode.NL)

let holders table ~resource =
  match Entries.find_opt table.entries resource with
  | None -> []
  | Some entry ->
    entry.granted
    |> List.map (fun (holder, mode, _duration) -> (holder, mode))
    |> List.sort compare

let locks_of table ~txn =
  entries_of table txn
  |> List.filter_map (fun entry ->
         match held_triple entry txn with
         | Some (_txn, mode, duration) -> Some (entry.resource, mode, duration)
         | None -> None)
  |> List.sort compare

let waiting_of table ~txn =
  entries_of table txn
  |> List.filter_map (fun entry ->
         match
           List.find_opt (fun waiter -> waiter.w_txn = txn) entry.waiting
         with
         | Some waiter -> Some (entry.resource, waiter.w_mode)
         | None -> None)
  |> List.sort compare

let resources table =
  Entries.fold (fun resource _entry accu -> resource :: accu) table.entries []
  |> List.sort String.compare

let entry_count table = table.entry_count
let peak_entry_count table = table.peak_entry_count

let waiter_count table =
  Entries.fold
    (fun _resource entry count -> count + List.length entry.waiting)
    table.entries 0

let waits_for_edges table =
  let edges = ref [] in
  Entries.iter
    (fun _resource entry ->
      let rec per_waiter earlier = function
        | [] -> ()
        | waiter :: later ->
          List.iter
            (fun (holder, mode, _duration) ->
              if
                holder <> waiter.w_txn
                && not (Lock_mode.compatible waiter.w_mode mode)
              then edges := (waiter.w_txn, holder) :: !edges)
            entry.granted;
          List.iter
            (fun ahead ->
              if
                ahead.w_txn <> waiter.w_txn
                && not (Lock_mode.compatible waiter.w_mode ahead.w_mode)
              then edges := (waiter.w_txn, ahead.w_txn) :: !edges)
            earlier;
          per_waiter (waiter :: earlier) later
      in
      per_waiter [] entry.waiting)
    table.entries;
  List.sort_uniq compare !edges

let wait_depth table ~txn =
  let successors = Hashtbl.create 16 in
  List.iter
    (fun (waiter, blocker) -> Hashtbl.add successors waiter blocker)
    (waits_for_edges table);
  (* Longest blocker chain below [t]; an edge back into the trail counts 1,
     so deadlock cycles contribute finite depth instead of diverging.  Also
     returns the shallowest trail level a back edge reached.  A transaction
     whose search reaches no level at or above its own lies on no cycle: no
     trail node is reachable from it, so its depth does not depend on the
     trail and is memoised, which keeps DAG-shaped graphs polynomial. *)
  let memo = Hashtbl.create 16 in
  let rec depth trail level t =
    match List.assoc_opt t trail with
    | Some reached -> (0, reached)
    | None -> (
      match Hashtbl.find_opt memo t with
      | Some known -> (known, max_int)
      | None ->
        let trail = (t, level) :: trail in
        let best, reached =
          List.fold_left
            (fun (best, reached) next ->
              let below, next_reached = depth trail (level + 1) next in
              (max best (1 + below), min reached next_reached))
            (0, max_int)
            (Hashtbl.find_all successors t)
        in
        if reached > level then Hashtbl.replace memo t best;
        (best, reached))
  in
  fst (depth [] 0 txn)

type index_pair = { listed : entry; mutable claimed : bool }

let check_invariants table =
  let violations = ref [] in
  let flag format = Printf.ksprintf (fun text -> violations := text :: !violations) format in
  let granted_total = ref 0 in
  (* every (txn, resource) pair the index lists, with the entry it names and
     whether a participant of that entry claimed it; one probe per pair and
     per participant keeps both directions of the index check linear (wide
     entries — every active transaction holds an intention lock on the
     database root — would otherwise be rescanned once per indexed txn) *)
  let indexed = Hashtbl.create 256 in
  Txns.iter
    (fun txn locks ->
      if locks.held = [] then flag "index: T%d kept with no entries" txn;
      List.iter
        (fun entry ->
          Hashtbl.add indexed (txn, entry.resource)
            { listed = entry; claimed = false })
        locks.held)
    table.by_txn;
  Entries.iter
    (fun resource entry ->
      granted_total := !granted_total + List.length entry.granted;
      (match entry.granted, entry.waiting with
       | [], [] -> flag "%s: empty entry not dropped" resource
       | _, _ -> ());
      (* at most one granted triple and one queued request per transaction —
         counted through a table so wide entries stay linear *)
      let occurrences = Hashtbl.create 16 in
      let bump counts key =
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      in
      let holder_count = occurrences in
      List.iter
        (fun (holder, _mode, _duration) -> bump holder_count holder)
        entry.granted;
      Hashtbl.iter
        (fun holder count ->
          if count > 1 then flag "%s: T%d granted twice" resource holder)
        holder_count;
      let waiter_count = Hashtbl.create 8 in
      List.iter (fun waiter -> bump waiter_count waiter.w_txn) entry.waiting;
      Hashtbl.iter
        (fun txn count ->
          if count > 1 then flag "%s: T%d queued twice" resource txn)
        waiter_count;
      List.iter
        (fun waiter ->
          if Hashtbl.mem holder_count waiter.w_txn && not waiter.w_conversion
          then flag "%s: T%d both holds and plain-waits" resource waiter.w_txn)
        entry.waiting;
      (* no two granted modes of distinct transactions may conflict: keep up
         to two distinct holders per mode and test mode pairs — the
         compatibility matrix is tiny, entries are not *)
      let mode_holders = Hashtbl.create 8 in
      List.iter
        (fun (holder, mode, _duration) ->
          match Hashtbl.find_opt mode_holders mode with
          | None -> Hashtbl.replace mode_holders mode [ holder ]
          | Some [ first ] when first <> holder ->
            Hashtbl.replace mode_holders mode [ first; holder ]
          | Some _ -> ())
        entry.granted;
      let distinct_pair mode other_mode =
        let holders_of m =
          Option.value ~default:[] (Hashtbl.find_opt mode_holders m)
        in
        List.find_map
          (fun h1 ->
            List.find_map
              (fun h2 -> if h1 <> h2 then Some (h1, h2) else None)
              (holders_of other_mode))
          (holders_of mode)
      in
      List.iteri
        (fun index1 mode1 ->
          List.iteri
            (fun index2 mode2 ->
              if index1 <= index2 && not (Lock_mode.compatible mode1 mode2)
              then
                match distinct_pair mode1 mode2 with
                | Some (h1, h2) ->
                  flag "%s: conflicting grants T%d:%s and T%d:%s" resource h1
                    (Lock_mode.to_string mode1) h2 (Lock_mode.to_string mode2)
                | None -> ())
            Lock_mode.all)
        Lock_mode.all;
      (* the queue head must have a live blocker — a grantable head means a
         lost wakeup (drain would have served it) *)
      (match entry.waiting with
       | [] -> ()
       | head :: _ ->
         let blocked =
           List.exists
             (fun (holder, mode, _duration) ->
               holder <> head.w_txn
               && not (Lock_mode.compatible head.w_mode mode))
             entry.granted
         in
         if not blocked then
           flag "%s: head waiter T%d has no live blocker" resource head.w_txn);
      (* every participant must be indexed under by_txn, by this entry *)
      let indexed txn =
        match Hashtbl.find_opt indexed (txn, resource) with
        | Some pair when pair.listed == entry ->
          pair.claimed <- true;
          true
        | Some _ | None -> false
      in
      List.iter
        (fun (holder, _mode, _duration) ->
          if not (indexed holder) then
            flag "%s: holder T%d missing from index" resource holder)
        entry.granted;
      List.iter
        (fun waiter ->
          if not (indexed waiter.w_txn) then
            flag "%s: waiter T%d missing from index" resource waiter.w_txn)
        entry.waiting)
    table.entries;
  if !granted_total <> table.entry_count then
    flag "entry count %d disagrees with %d granted entries" table.entry_count
      !granted_total;
  (* the index may not point at entries the transaction left, nor list one
     twice (the copy found second stays unclaimed) *)
  Hashtbl.iter
    (fun (txn, resource) pair ->
      if not pair.claimed then flag "index: T%d still maps to %s" txn resource)
    indexed;
  List.sort String.compare !violations

let pp formatter table =
  Format.fprintf formatter "@[<v>";
  List.iter
    (fun resource ->
      match Entries.find_opt table.entries resource with
      | None -> ()
      | Some entry ->
        let pp_granted formatter (holder, mode, duration) =
          Format.fprintf formatter "T%d:%a%s" holder Lock_mode.pp mode
            (match duration with Long -> "(long)" | Short -> "")
        in
        let pp_waiter formatter waiter =
          Format.fprintf formatter "T%d?%a" waiter.w_txn Lock_mode.pp
            waiter.w_mode
        in
        Format.fprintf formatter "%s: granted [%a] waiting [%a]@," resource
          (Format.pp_print_list
             ~pp_sep:(fun formatter () -> Format.pp_print_string formatter ", ")
             pp_granted)
          entry.granted
          (Format.pp_print_list
             ~pp_sep:(fun formatter () -> Format.pp_print_string formatter ", ")
             pp_waiter)
          entry.waiting)
    (resources table);
  Format.fprintf formatter "@]"
