type priority = High | Normal | Low

let priority_to_string = function
  | High -> "high"
  | Normal -> "normal"
  | Low -> "low"

let rank = function High -> 2 | Normal -> 1 | Low -> 0

type config = {
  initial : int;
  min_limit : int;
  max_limit : int;
  queue_capacity : int;
  increase : int;
  decrease : float;
}

let default_config =
  {
    initial = 8;
    min_limit = 1;
    max_limit = 64;
    queue_capacity = 16;
    increase = 1;
    decrease = 0.5;
  }

let config_to_string c =
  Printf.sprintf "%d:%d:%d:%d" c.initial c.min_limit c.max_limit
    c.queue_capacity

let config_of_string s =
  let parse_int label v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "admission %s: not an integer: %S" label v)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ init ] ->
    let* initial = parse_int "initial" init in
    Ok
      {
        default_config with
        initial;
        min_limit = min default_config.min_limit initial;
        max_limit = max default_config.max_limit initial;
      }
  | [ init; lo; hi ] ->
    let* initial = parse_int "initial" init in
    let* min_limit = parse_int "min" lo in
    let* max_limit = parse_int "max" hi in
    Ok { default_config with initial; min_limit; max_limit }
  | [ init; lo; hi; q ] ->
    let* initial = parse_int "initial" init in
    let* min_limit = parse_int "min" lo in
    let* max_limit = parse_int "max" hi in
    let* queue_capacity = parse_int "queue" q in
    Ok { default_config with initial; min_limit; max_limit; queue_capacity }
  | _ ->
    Error
      (Printf.sprintf "admission spec %S: expected INIT[:MIN:MAX[:QUEUE]]" s)

let validate c =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if c.min_limit < 1 then err "admission min must be >= 1 (got %d)" c.min_limit;
  if c.max_limit < c.min_limit then
    err "admission max %d < min %d" c.max_limit c.min_limit;
  if c.initial < c.min_limit || c.initial > c.max_limit then
    err "admission initial %d outside [%d, %d]" c.initial c.min_limit
      c.max_limit;
  if c.queue_capacity < 0 then
    err "admission queue must be >= 0 (got %d)" c.queue_capacity;
  if c.increase < 1 then err "admission increase must be >= 1 (got %d)" c.increase;
  if not (c.decrease > 0.0 && c.decrease < 1.0) then
    err "admission decrease must be in (0, 1) (got %g)" c.decrease;
  List.rev !errs

(* The entry queue is one list kept in arrival order; priority is applied on
   [pop] and on eviction, not by segregating storage, so fairness inside a
   class is FIFO by construction. Queues stay tiny (bounded by
   [queue_capacity]) so linear scans are fine. *)
type entry = { txn : int; prio : priority; seq : int }

type t = {
  cfg : config;
  mutable cur_limit : int;
  mutable inflight : int;
  mutable queue : entry list; (* arrival order, oldest first *)
  mutable seq : int;
  mutable shed : int;
}

type decision = Admitted | Enqueued of { evicted : int option } | Rejected

let create cfg =
  {
    cfg;
    cur_limit = cfg.initial;
    inflight = 0;
    queue = [];
    seq = 0;
    shed = 0;
  }

let config t = t.cfg
let limit t = t.cur_limit
let inflight t = t.inflight
let queued t = List.length t.queue
let shed_count t = t.shed

let set_limit t n =
  t.cur_limit <- max t.cfg.min_limit (min t.cfg.max_limit n);
  t.cur_limit

(* Oldest entry of the strictly lowest priority class present. *)
let eviction_candidate queue =
  match queue with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun worst e -> if rank e.prio < rank worst.prio then e else worst)
         first rest)

let request t ~priority ~txn =
  if t.inflight < t.cur_limit then begin
    t.inflight <- t.inflight + 1;
    Admitted
  end
  else begin
    let enqueue evicted =
      t.seq <- t.seq + 1;
      t.queue <- t.queue @ [ { txn; prio = priority; seq = t.seq } ];
      Enqueued { evicted }
    in
    if List.length t.queue < t.cfg.queue_capacity then enqueue None
    else
      match eviction_candidate t.queue with
      | Some victim when rank victim.prio < rank priority ->
        t.queue <- List.filter (fun (e : entry) -> e.seq <> victim.seq) t.queue;
        t.shed <- t.shed + 1;
        enqueue (Some victim.txn)
      | _ ->
        t.shed <- t.shed + 1;
        Rejected
  end

let release t = t.inflight <- max 0 (t.inflight - 1)

let pop t =
  if t.inflight >= t.cur_limit then None
  else
    match t.queue with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left
          (fun best e -> if rank e.prio > rank best.prio then e else best)
          first rest
      in
      t.queue <- List.filter (fun (e : entry) -> e.seq <> best.seq) t.queue;
      t.inflight <- t.inflight + 1;
      Some best.txn
