(* A sliding window over the emitting clock (virtual ticks in the simulator,
   seconds on a wall clock).  The window is half-open: a sample at time [s]
   is live while [now - span < s <= now], so a sample stamped exactly
   [span] ago has aged out.  Quantiles are exact over the live samples
   (sorted on demand — windows hold at most [limit] samples). *)

type t = {
  span : float;
  limit : int;
  samples : (float * float) Queue.t;  (* (time, value), oldest first *)
  mutable last : float;   (* latest clock value the window has seen *)
  mutable shed : int;     (* live samples evicted by the [limit] cap *)
}

let create ?(limit = 8192) ~span () =
  if span <= 0.0 then invalid_arg "Window.create: span must be positive";
  if limit <= 0 then invalid_arg "Window.create: limit must be positive";
  { span; limit; samples = Queue.create (); last = 0.0; shed = 0 }

let shed window = window.shed

let expire window =
  let horizon = window.last -. window.span in
  let rec drop () =
    match Queue.peek_opt window.samples with
    | Some (time, _) when time <= horizon ->
      ignore (Queue.pop window.samples);
      drop ()
    | Some _ | None -> ()
  in
  drop ()

let advance window ~now =
  if now > window.last then window.last <- now;
  expire window

let observe window ~now value =
  advance window ~now;
  Queue.push (now, value) window.samples;
  if Queue.length window.samples > window.limit then begin
    ignore (Queue.pop window.samples);
    window.shed <- window.shed + 1
  end

let mark window ~now = observe window ~now 1.0

let count window = Queue.length window.samples

let rate window = float_of_int (Queue.length window.samples) /. window.span

let sum window =
  Queue.fold (fun accu (_, value) -> accu +. value) 0.0 window.samples

let mean window =
  let n = Queue.length window.samples in
  if n = 0 then 0.0 else sum window /. float_of_int n

let sorted_values window =
  let values =
    Array.make (Queue.length window.samples) 0.0
  in
  let index = ref 0 in
  Queue.iter
    (fun (_, value) ->
      values.(!index) <- value;
      Stdlib.incr index)
    window.samples;
  Array.sort Float.compare values;
  values

let quantile window q =
  let values = sorted_values window in
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int (n - 1) in
    let low = int_of_float (Float.floor rank) in
    let high = int_of_float (Float.ceil rank) in
    if low = high then values.(low)
    else
      let fraction = rank -. float_of_int low in
      values.(low) +. (fraction *. (values.(high) -. values.(low)))
  end

let max_value window =
  Queue.fold (fun accu (_, value) -> Float.max accu value) 0.0 window.samples

let reset window =
  Queue.clear window.samples;
  window.last <- 0.0;
  window.shed <- 0

let row ?(prefix = "") window =
  let key suffix = if prefix = "" then suffix else prefix ^ "_" ^ suffix in
  [ (key "count", float_of_int (count window));
    (key "rate", rate window);
    (key "p50", quantile window 0.50);
    (key "p95", quantile window 0.95);
    (key "p99", quantile window 0.99);
    (key "max", max_value window) ]
