(* Event-driven metrics: the collector is itself a sink handler.  It counts
   every event kind and feeds three latency histograms:

     lock_wait      a granted wait span of [Spans]
     grant_latency  Lock_requested(t0) -> Lock_granted(t1)   same txn+resource
     txn_response   a committed lifecycle of [Spans]: first Txn_begin to
                    Txn_commit

   Histograms are pre-declared so exports carry stable keys even for runs
   with no waits. *)

let wait_histogram = "lock_wait"
let grant_histogram = "grant_latency"
let response_histogram = "txn_response"

type t = {
  registry : Registry.t;
  spans : Spans.t;
  requests : (int * string, float) Hashtbl.t;
}

let create () =
  let registry = Registry.create () in
  let (_ : Histogram.t) = Registry.histogram registry wait_histogram in
  let (_ : Histogram.t) = Registry.histogram registry grant_histogram in
  let (_ : Histogram.t) = Registry.histogram registry response_histogram in
  let spans = Spans.create () in
  Spans.on_wait spans (fun span ->
      match span.Spans.s_outcome with
      | Spans.Granted ->
        Registry.observe registry wait_histogram (Spans.duration span)
      | Spans.Aborted _ | Spans.Unfinished -> ());
  Spans.on_life spans (function
    | { Spans.l_begin = Some start; l_end = Some ("commit", finish); _ } ->
      Registry.observe registry response_histogram
        (Float.max 0.0 (finish -. start))
    | _ -> ());
  { registry; spans; requests = Hashtbl.create 64 }

let registry collector = collector.registry

let handle collector event =
  let { Event.time; kind } = event in
  Registry.incr collector.registry ("events." ^ Event.name kind);
  Spans.handle collector.spans event;
  match kind with
  | Event.Lock_requested { txn; resource; _ } ->
    Hashtbl.replace collector.requests (txn, resource) time
  | Event.Lock_granted { txn; resource; _ } -> (
    match Hashtbl.find_opt collector.requests (txn, resource) with
    | Some start ->
      Hashtbl.remove collector.requests (txn, resource);
      Registry.observe collector.registry grant_histogram
        (Float.max 0.0 (time -. start))
    | None -> ())
  | _ -> ()
