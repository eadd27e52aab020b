(* Clocks, order statistics, heap and host diagnostics shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since start_ns = float_of_int (now_ns () - start_ns) /. 1e9

let time f =
  let start = now_ns () in
  let result = f () in
  (result, seconds_since start)

(* Linear interpolation between closest ranks, over a sorted copy. *)
let quantile values q =
  let sorted = Float.Array.copy values in
  Float.Array.sort Float.compare sorted;
  let n = Float.Array.length sorted in
  if n = 0 then nan
  else
    let position = q *. float_of_int (n - 1) in
    let low = int_of_float position in
    let high = min (n - 1) (low + 1) in
    let fraction = position -. float_of_int low in
    Float.Array.get sorted low
    +. (fraction *. (Float.Array.get sorted high -. Float.Array.get sorted low))

let median values = quantile values 0.5

(* Live words after a full major collection. Everything the benchmark keeps
   alive at this point is sized by the seed and the work, never by wall
   time, so the figure repeats exactly for one seed. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let live_mb () = float_of_int (live_words () * (Sys.word_size / 8)) /. 1e6

let cpu_seconds () =
  let times = Unix.times () in
  times.Unix.tms_utime +. times.Unix.tms_stime

(* ------------------------------------------------------------- host speed *)

(* A fixed stdlib-only loop (integer hashing into a 32 KB table) that
   allocates nothing: its duration tracks how fast the host runs right now,
   independently of the library under test. *)
let probe_table = Array.make 4096 0

let host_probe_ms ~iterations =
  let start = now_ns () in
  let state = ref 17 in
  for _ = 1 to iterations do
    state := (!state * 1103515245) + 12345;
    let slot = (!state lsr 16) land 4095 in
    probe_table.(slot) <- probe_table.(slot) + 1
  done;
  float_of_int (now_ns () - start) /. 1e6

(* The probe run next to every measured piece of work, and the duration it
   has on the reference host. On a shared virtual machine the host's speed
   drifts by tens of percent over minutes; a duration measured next to a
   probe that took [p] ms is reported as [duration * reference_probe_ms / p],
   the duration on a host where the probe takes [reference_probe_ms]. The
   probe runs outside the measured work. *)
let probe_iterations = 500_000
let reference_probe_ms = 1.0
let probe () = host_probe_ms ~iterations:probe_iterations
let to_reference ~probe_ms seconds = seconds *. reference_probe_ms /. probe_ms

(* [f ()], its wall seconds, and those seconds on the reference host. *)
let time_normalized f =
  let result, seconds = time f in
  (result, seconds, to_reference ~probe_ms:(probe ()) seconds)

(* Equal batches of a fixed amount of work: one rate and one probe per
   batch, preallocated so the heap figure never depends on timing. *)
type batches = {
  rates : Float.Array.t;  (* work per wall second *)
  probes : Float.Array.t;  (* ms, the probe run right after the batch *)
  mutable filled : int;
}

let batches count =
  { rates = Float.Array.make count 0.0; probes = Float.Array.make count 0.0;
    filled = 0 }

(* Records one batch and runs its probe (or takes the probe duration the
   caller measured around it); returns the probe's duration. *)
let record_batch ?(probe_ms = probe ()) batches ~work ~seconds =
  if batches.filled < Float.Array.length batches.rates then begin
    Float.Array.set batches.rates batches.filled (float_of_int work /. seconds);
    Float.Array.set batches.probes batches.filled probe_ms;
    batches.filled <- batches.filled + 1
  end;
  probe_ms

let concat list =
  let filled field =
    Float.Array.concat (List.map (fun b -> Float.Array.sub (field b) 0 b.filled) list)
  in
  { rates = filled (fun b -> b.rates); probes = filled (fun b -> b.probes);
    filled = List.fold_left (fun total b -> total + b.filled) 0 list }

let raw_median_rate batches = median (Float.Array.sub batches.rates 0 batches.filled)
let median_probe_ms batches = median (Float.Array.sub batches.probes 0 batches.filled)

(* Median over batches of the rate on the reference host. *)
let median_rate batches =
  median
    (Float.Array.init batches.filled (fun index ->
         Float.Array.get batches.rates index
         *. Float.Array.get batches.probes index /. reference_probe_ms))

(* The quantile within each of [count] equal consecutive slices of
   [values]. *)
let slice_quantiles values ~count q =
  let size = Float.Array.length values / count in
  Float.Array.init count (fun slice ->
      quantile (Float.Array.sub values (slice * size) size) q)

(* [values] holds one equal slice per batch: the quantile within each
   slice, on the reference host, then the median over the slices, so a
   slow phase moves a minority of slices instead of the whole tail. *)
let batched_quantile batches values q =
  median
    (Float.Array.mapi
       (fun slice value ->
         value *. reference_probe_ms /. Float.Array.get batches.probes slice)
       (slice_quantiles values ~count:batches.filled q))
