(* The live half of the observability stack: a sink handler that folds the
   event stream into gauges (levels right now), sliding windows (rates and
   quantiles of the recent past) and per-resource contention tallies —
   what [colock top] and the SLO engine read, and nothing else.

   It reads waits, holds and lifecycles from its own span fold and counts
   commits itself.  A [Run_meta] delimiter resets the registry and the
   fold, restarts the clock and relabels the monitor, so one monitor fed
   several technique runs reads each as a fresh one would. *)

type resource_stat = {
  mutable r_blocked : float;
  mutable r_waits : int;
  mutable r_lu : Event.lu option;
}

type t = {
  registry : Registry.t;
  spans : Spans.t;
  span : float;
  (* the windows list mirrors the registry's, kept here so per-event
     advancing does not re-sort a hashtable *)
  mutable live_windows : Window.t list;
  (* bounded hot-key state: the sketch admits at most [hot_k] keys and
     [resources] is evicted in lockstep, so memory stays O(hot_k) on
     million-object catalogs *)
  resource_sketch : Sketch.t;
  resources : (string, resource_stat) Hashtbl.t;
  mutable commits : int;
  mutable label : string option;
  mutable started : float;
  mutable now : float;
  mutable seen : bool;  (* any event at all (so [started] is meaningful) *)
}

(* ----------------------------------------------------- instrument names *)

let gauge_active = "active_txns"
let gauge_entries = "lock_entries"
let gauge_depth = "wait_queue_depth"
let window_wait = "window.lock_wait"
let window_grants = "window.grants"
let window_commits = "window.commits"
let window_aborts = "window.aborts"
let window_deadlocks = "window.deadlocks"

let registry monitor = monitor.registry
let span monitor = monitor.span
let label monitor = monitor.label
let now monitor = monitor.now
let commits monitor = monitor.commits

let window monitor name =
  match Registry.find_window monitor.registry name with
  | Some window -> window
  | None ->
    let window = Registry.window ~span:monitor.span monitor.registry name in
    monitor.live_windows <- window :: monitor.live_windows;
    window

let observe_window monitor name value =
  Window.observe (window monitor name) ~now:monitor.now value

let mark_window monitor name = observe_window monitor name 1.0

let set_gauge monitor name value =
  Registry.set_gauge monitor.registry name (float_of_int value)

let sync_gauges monitor =
  set_gauge monitor gauge_active (Spans.active monitor.spans);
  set_gauge monitor gauge_entries (Spans.held monitor.spans);
  set_gauge monitor gauge_depth (Spans.waiting monitor.spans)

let resource_stat monitor resource =
  match Hashtbl.find_opt monitor.resources resource with
  | Some stat -> stat
  | None ->
    let stat = { r_blocked = 0.0; r_waits = 0; r_lu = None } in
    Hashtbl.replace monitor.resources resource stat;
    stat

(* When the sketch evicts a key, its side-table stat goes with it. *)
let charge_resource monitor resource ~blocked =
  (match Sketch.observe ~weight:blocked monitor.resource_sketch resource with
   | Some victim -> Hashtbl.remove monitor.resources victim
   | None -> ());
  match Sketch.find monitor.resource_sketch resource with
  | Some (estimate, _error) ->
    (resource_stat monitor resource).r_blocked <- estimate
  | None -> ()

(* Every closed wait is charged, granted or aborted: a victim's elapsed
   blocked time was real contention (aborted waits hurt p99 too). *)
let charge_wait monitor (wait : Spans.span) =
  let blocked = Spans.duration wait in
  let resource = wait.Spans.s_resource and lu = wait.Spans.s_lu in
  let stat = resource_stat monitor resource in
  stat.r_waits <- stat.r_waits + 1;
  (match lu with Some _ -> stat.r_lu <- lu | None -> ());
  charge_resource monitor resource ~blocked;
  observe_window monitor window_wait blocked;
  match lu with
  | None -> ()
  | Some { Event.lu_kind; _ } ->
    observe_window monitor
      (Printf.sprintf "%s{lu=\"%s\"}" window_wait lu_kind)
      blocked

let create ?(span = 200.0) ?(hot_k = 32) () =
  if hot_k <= 0 then invalid_arg "Monitor.create: hot_k must be positive";
  let monitor =
    { registry = Registry.create (); spans = Spans.create (); span;
      live_windows = [];
      resource_sketch = Sketch.create ~k:hot_k;
      resources = Hashtbl.create 256;
      commits = 0; label = None; started = 0.0; now = 0.0; seen = false }
  in
  (* pre-declare the unlabelled instruments so readers find them before
     the first event *)
  List.iter
    (fun name -> ignore (window monitor name : Window.t))
    [ window_wait; window_grants; window_commits; window_aborts;
      window_deadlocks ];
  List.iter
    (fun name -> Registry.set_gauge monitor.registry name 0.0)
    [ gauge_active; gauge_entries; gauge_depth ];
  Spans.on_wait monitor.spans (charge_wait monitor);
  monitor

(* The next run keeps its own clock: its waits and windows age from its
   own first event, not from the previous run's last. *)
let reset monitor =
  Registry.reset monitor.registry;
  Spans.reset monitor.spans;
  Hashtbl.reset monitor.resources;
  Sketch.reset monitor.resource_sketch;
  monitor.commits <- 0;
  monitor.started <- 0.0;
  monitor.now <- 0.0;
  monitor.seen <- false

let begin_run monitor ~label =
  reset monitor;
  monitor.label <- Some label

let handle_kind monitor kind =
  (match Spans.abort_cause kind with
   | Some cause ->
     Registry.incr monitor.registry ("aborts." ^ cause);
     mark_window monitor window_aborts
   | None -> ());
  match kind with
  | Event.Txn_commit _ ->
    monitor.commits <- monitor.commits + 1;
    mark_window monitor window_commits
  | Event.Lock_granted _ -> mark_window monitor window_grants
  | Event.Deadlock_detected _ -> mark_window monitor window_deadlocks
  | Event.Run_meta { label } -> begin_run monitor ~label
  | Event.Txn_begin _ | Event.Txn_abort _ | Event.Victim_aborted _
  | Event.Timeout_abort _ | Event.Contention_abort _ | Event.Lock_waited _
  | Event.Lock_released _ | Event.Lock_requested _ | Event.Conversion _
  | Event.Escalation _ | Event.Deescalation _ | Event.Query_executed _
  | Event.Sim_step _ | Event.Waits_for _ | Event.Slo_breach _
  | Event.Admission _ | Event.Admission_limit _ | Event.Breaker _
  | Event.Retry_denied _ ->
    ()

let handle monitor event =
  let { Event.time; _ } = event in
  if not monitor.seen then begin
    monitor.seen <- true;
    monitor.started <- time
  end;
  if time > monitor.now then monitor.now <- time;
  List.iter
    (fun window -> Window.advance window ~now:monitor.now)
    monitor.live_windows;
  Spans.handle monitor.spans event;
  handle_kind monitor event.Event.kind;
  sync_gauges monitor

(* ------------------------------------------------------------ snapshots *)

let elapsed monitor =
  if monitor.seen then Float.max 0.0 (monitor.now -. monitor.started) else 0.0

let throughput monitor =
  let elapsed = elapsed monitor in
  if elapsed > 0.0 then float_of_int monitor.commits /. elapsed else 0.0

let aborts monitor =
  Registry.counters monitor.registry
  |> List.filter_map (fun (name, value) ->
         match String.length name > 7 && String.sub name 0 7 = "aborts." with
         | true -> Some (String.sub name 7 (String.length name - 7), value)
         | false -> None)

let hot_resources ?(top = 10) monitor =
  Hashtbl.fold
    (fun resource stat accu -> (resource, stat) :: accu)
    monitor.resources []
  |> List.sort (fun (resource_a, a) (resource_b, b) ->
         match Float.compare b.r_blocked a.r_blocked with
         | 0 -> String.compare resource_a resource_b
         | order -> order)
  |> List.filteri (fun index _ -> index < top)
