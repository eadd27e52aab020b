type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  failure_rate : float;
  min_events : int;
  open_for : int;
  probes : int;
}

let default_config =
  { failure_rate = 0.8; min_events = 16; open_for = 200; probes = 3 }

let config_of_string s =
  let ( let* ) = Result.bind in
  let parse_float label v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "breaker %s: not a number: %S" label v)
  in
  let parse_int label v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "breaker %s: not an integer: %S" label v)
  in
  match String.split_on_char ':' s with
  | [ rate; open_for ] ->
    let* failure_rate = parse_float "rate" rate in
    let* open_for = parse_int "open" open_for in
    Ok { default_config with failure_rate; open_for }
  | [ rate; open_for; probes ] ->
    let* failure_rate = parse_float "rate" rate in
    let* open_for = parse_int "open" open_for in
    let* probes = parse_int "probes" probes in
    Ok { default_config with failure_rate; open_for; probes }
  | _ -> Error (Printf.sprintf "breaker spec %S: expected RATE:OPEN[:PROBES]" s)

let validate c =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if not (c.failure_rate > 0.0 && c.failure_rate <= 1.0) then
    err "breaker rate must be in (0, 1] (got %g)" c.failure_rate;
  if c.min_events < 1 then
    err "breaker min-events must be >= 1 (got %d)" c.min_events;
  if c.open_for < 1 then err "breaker open must be >= 1 (got %d)" c.open_for;
  if c.probes < 1 then err "breaker probes must be >= 1 (got %d)" c.probes;
  List.rev !errs

type t = {
  cfg : config;
  mutable st : state;
  mutable commits : int;
  mutable aborts : int;
  mutable opened_at : int;
  mutable probe_budget : int; (* Half_open: probe admissions left *)
  mutable probe_commits : int; (* Half_open: probe commits seen *)
}

let create cfg =
  {
    cfg;
    st = Closed;
    commits = 0;
    aborts = 0;
    opened_at = 0;
    probe_budget = 0;
    probe_commits = 0;
  }

let state t = t.st
let config t = t.cfg

let trip t ~now =
  t.st <- Open;
  t.opened_at <- now;
  t.commits <- 0;
  t.aborts <- 0

(* Halve the sample once it grows well past [min_events], so the observed
   rate tracks the recent regime instead of the whole run. *)
let decay t =
  if t.commits + t.aborts >= 4 * t.cfg.min_events then begin
    t.commits <- t.commits / 2;
    t.aborts <- t.aborts / 2
  end

let check_trip t ~now =
  let total = t.commits + t.aborts in
  if
    total >= t.cfg.min_events
    && float_of_int t.aborts /. float_of_int total >= t.cfg.failure_rate
  then trip t ~now

let record_commit t ~now =
  ignore now;
  match t.st with
  | Closed ->
    t.commits <- t.commits + 1;
    decay t
  | Open -> ()
  | Half_open ->
    t.probe_commits <- t.probe_commits + 1;
    if t.probe_commits >= t.cfg.probes then begin
      t.st <- Closed;
      t.commits <- 0;
      t.aborts <- 0
    end

let record_abort t ~now =
  match t.st with
  | Closed ->
    t.aborts <- t.aborts + 1;
    decay t;
    check_trip t ~now
  | Open -> ()
  | Half_open -> trip t ~now

let allow t ~now =
  match t.st with
  | Closed -> true
  | Open ->
    if now >= t.opened_at + t.cfg.open_for then begin
      t.st <- Half_open;
      t.probe_budget <- t.cfg.probes - 1;
      t.probe_commits <- 0;
      true
    end
    else false
  | Half_open ->
    if t.probe_budget > 0 then begin
      t.probe_budget <- t.probe_budget - 1;
      true
    end
    else false

let reopen_at t =
  match t.st with Open -> Some (t.opened_at + t.cfg.open_for) | _ -> None
