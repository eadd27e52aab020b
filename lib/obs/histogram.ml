(* Log-scale (base-2) buckets: bucket 0 holds [0, 1), bucket b (1 <= b < 63)
   holds [2^(b-1), 2^b), and the last bucket is the overflow for everything
   at or above 2^62.  Exact min/max/sum are tracked alongside, so quantile
   interpolation can clamp to observed values — a single-sample histogram
   reports that sample for every quantile. *)

let bucket_count = 64
let overflow = bucket_count - 1

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_value : float;
  mutable max_value : float;
}

let create () =
  { buckets = Array.make bucket_count 0; count = 0; sum = 0.0;
    min_value = Float.infinity; max_value = Float.neg_infinity }

let reset histogram =
  Array.fill histogram.buckets 0 bucket_count 0;
  histogram.count <- 0;
  histogram.sum <- 0.0;
  histogram.min_value <- Float.infinity;
  histogram.max_value <- Float.neg_infinity

let bucket_of value =
  if value < 1.0 then 0
  else
    (* frexp: value = m * 2^e with m in [0.5, 1), so e >= 1 for value >= 1 *)
    let (_, exponent) = Float.frexp value in
    min exponent overflow

(* Inclusive lower bound of a bucket. *)
let lower_bound bucket = if bucket = 0 then 0.0 else Float.ldexp 1.0 (bucket - 1)

let observe histogram value =
  let value = Float.max value 0.0 in
  let bucket = bucket_of value in
  histogram.buckets.(bucket) <- histogram.buckets.(bucket) + 1;
  histogram.count <- histogram.count + 1;
  histogram.sum <- histogram.sum +. value;
  if value < histogram.min_value then histogram.min_value <- value;
  if value > histogram.max_value then histogram.max_value <- value

let count histogram = histogram.count
let sum histogram = histogram.sum
let mean histogram =
  if histogram.count = 0 then 0.0
  else histogram.sum /. float_of_int histogram.count

let max_value histogram = if histogram.count = 0 then 0.0 else histogram.max_value
let min_value histogram = if histogram.count = 0 then 0.0 else histogram.min_value

let quantile histogram q =
  if histogram.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int histogram.count in
    let rec locate bucket cumulative =
      if bucket > overflow then histogram.max_value
      else
        let here = histogram.buckets.(bucket) in
        let reached = cumulative +. float_of_int here in
        if here > 0 && reached >= rank then begin
          (* Linear interpolation inside the bucket; the overflow bucket's
             upper bound is the observed maximum. *)
          let low = lower_bound bucket in
          let high =
            if bucket = overflow then histogram.max_value
            else lower_bound (bucket + 1)
          in
          let fraction =
            if here = 0 then 0.0
            else (rank -. cumulative) /. float_of_int here
          in
          low +. (fraction *. (high -. low))
        end
        else locate (bucket + 1) reached
    in
    let interpolated = locate 0 0.0 in
    Float.min histogram.max_value (Float.max histogram.min_value interpolated)
  end

let bucket_counts histogram =
  let cells = ref [] in
  for bucket = bucket_count - 1 downto 0 do
    if histogram.buckets.(bucket) > 0 then
      cells := (lower_bound bucket, histogram.buckets.(bucket)) :: !cells
  done;
  !cells

let row ?(prefix = "") histogram =
  let key suffix = if prefix = "" then suffix else prefix ^ "_" ^ suffix in
  [ (key "count", float_of_int histogram.count);
    (key "mean", mean histogram);
    (key "p50", quantile histogram 0.50);
    (key "p95", quantile histogram 0.95);
    (key "p99", quantile histogram 0.99);
    (key "max", max_value histogram) ]
