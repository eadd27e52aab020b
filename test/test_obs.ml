(* Tests for the observability layer: histogram quantile edge cases, the
   whole-run memory capture, the sink's meter, collector span pairing, the
   Chrome trace exporter, the JSON encoder against its string-building
   predecessor, the JSONL sink's line-at-a-time contract, and the run
   reader. *)

module Histogram = Obs.Histogram
module Event = Obs.Event

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* -------------------------------------------------------------- Histogram *)

let test_histogram_empty () =
  let histogram = Histogram.create () in
  check_int "count" 0 (Histogram.count histogram);
  check_float "mean" 0.0 (Histogram.mean histogram);
  check_float "p50" 0.0 (Histogram.quantile histogram 0.5);
  check_float "p99" 0.0 (Histogram.quantile histogram 0.99);
  check_float "max" 0.0 (Histogram.max_value histogram)

let test_histogram_single_sample () =
  let histogram = Histogram.create () in
  Histogram.observe histogram 42.0;
  (* clamping to the observed min/max means every quantile is the sample *)
  List.iter
    (fun q ->
      check_float (Printf.sprintf "q=%.2f" q) 42.0
        (Histogram.quantile histogram q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  check_float "mean" 42.0 (Histogram.mean histogram);
  check_float "min" 42.0 (Histogram.min_value histogram);
  check_float "max" 42.0 (Histogram.max_value histogram)

let test_histogram_overflow_bucket () =
  let histogram = Histogram.create () in
  (* 2^63 lands beyond the last regular bucket (2^62) *)
  let huge = Float.ldexp 1.0 63 in
  Histogram.observe histogram 1.0;
  Histogram.observe histogram huge;
  check_int "count" 2 (Histogram.count histogram);
  (* the overflow bucket's upper bound is the observed maximum, so its
     quantiles interpolate toward the true max instead of infinity *)
  let p99 = Histogram.quantile histogram 0.99 in
  check_bool "p99 within the overflow bucket" true
    (p99 >= Float.ldexp 1.0 62 && p99 <= huge);
  check_float "q=1 is the observed max" huge (Histogram.quantile histogram 1.0);
  check_float "max" huge (Histogram.max_value histogram);
  check_bool "p50 stays finite" true
    (Float.is_finite (Histogram.quantile histogram 0.5))

let test_histogram_negative_clamps () =
  let histogram = Histogram.create () in
  Histogram.observe histogram (-5.0);
  check_float "min clamped to 0" 0.0 (Histogram.min_value histogram);
  check_float "p50" 0.0 (Histogram.quantile histogram 0.5)

let test_histogram_quantiles_ordered () =
  let histogram = Histogram.create () in
  List.iter
    (fun value -> Histogram.observe histogram (float_of_int value))
    (List.init 100 (fun index -> index + 1));
  let p50 = Histogram.quantile histogram 0.50 in
  let p95 = Histogram.quantile histogram 0.95 in
  let p99 = Histogram.quantile histogram 0.99 in
  check_bool "p50 <= p95" true (p50 <= p95);
  check_bool "p95 <= p99" true (p95 <= p99);
  check_bool "p99 <= max" true (p99 <= Histogram.max_value histogram);
  (* log-scale buckets are coarse, but the median of 1..100 must land in the
     right power-of-two neighbourhood *)
  check_bool "p50 in [32, 64]" true (p50 >= 32.0 && p50 <= 64.0)

let test_histogram_bucket_counts () =
  let histogram = Histogram.create () in
  check_bool "empty histogram has no buckets" true
    (Histogram.bucket_counts histogram = []);
  List.iter (Histogram.observe histogram) [ 1.0; 1.5; 100.0 ];
  let buckets = Histogram.bucket_counts histogram in
  check_int "samples preserved" 3
    (List.fold_left (fun acc (_, count) -> acc + count) 0 buckets);
  check_bool "lower bounds ascend" true
    (let bounds = List.map fst buckets in
     List.sort compare bounds = bounds);
  check_bool "only non-empty buckets" true
    (List.for_all (fun (_, count) -> count > 0) buckets)

(* -------------------------------------------------------------- Collector *)

let wait txn resource =
  Event.Lock_waited
    { txn; resource; mode = "X"; blockers = [ 99 ]; lu = None; holders = [] }

let grant ?(immediate = false) txn resource =
  Event.Lock_granted
    { txn; resource; mode = "X"; immediate; lu = None; holders = [] }

let test_collector_pairs_wait_to_grant () =
  let collector = Obs.Collector.create () in
  let sink = Obs.Sink.create [ Obs.Collector.handle collector ] in
  Obs.Sink.emit_at sink ~time:10.0 (wait 1 "r");
  Obs.Sink.emit_at sink ~time:25.0 (grant 1 "r");
  let registry = Obs.Collector.registry collector in
  let histogram = Option.get (Obs.Registry.find_histogram registry "lock_wait") in
  check_int "one wait span" 1 (Histogram.count histogram);
  check_float "wait duration" 15.0 (Histogram.max_value histogram);
  check_int "events counted" 1 (Obs.Registry.counter registry "events.lock_waited")

let test_collector_txn_response () =
  let collector = Obs.Collector.create () in
  let sink = Obs.Sink.create [ Obs.Collector.handle collector ] in
  Obs.Sink.emit_at sink ~time:0.0 (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit_at sink ~time:100.0 (Event.Txn_commit { txn = 1 });
  Obs.Sink.emit_at sink ~time:5.0 (Event.Txn_begin { txn = 2 });
  Obs.Sink.emit_at sink ~time:6.0
    (Event.Txn_abort { txn = 2; reason = "user" });
  let registry = Obs.Collector.registry collector in
  let histogram =
    Option.get (Obs.Registry.find_histogram registry "txn_response")
  in
  check_int "only the commit is a response sample" 1 (Histogram.count histogram);
  check_float "response time" 100.0 (Histogram.max_value histogram)

(* ------------------------------------------------------------------- Sink *)

let test_sink_filter_drops_sim_steps () =
  let seen = ref [] in
  let sink =
    Obs.Sink.create
      [ Obs.Sink.filter Obs.Sink.not_sim_step
          (fun event -> seen := event :: !seen) ]
  in
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 0 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 1 });
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  check_int "sim steps filtered out" 2 (List.length !seen)

(* The meter counts the emissions a sink fanned out: none while no handler
   is attached, and every one after, whether or not a filter lets the
   handler see it. *)
let test_sink_meter_counts_emissions () =
  let seen = ref 0 in
  let sink = Obs.Sink.create [] in
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  check_int "no handler, no count" 0 (Obs.Sink.emit_count sink);
  Obs.Sink.attach sink
    (Obs.Sink.filter Obs.Sink.not_sim_step (fun _ -> incr seen));
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 0 });
  Obs.Sink.emit_at sink ~time:3.0 (Event.Txn_commit { txn = 1 });
  check_int "every fanned-out emission" 3 (Obs.Sink.emit_count sink);
  check_int "the filter passed two" 2 !seen;
  check_int "the meter cell is the sink's" 3
    (Obs.Sink.meter sink).Obs.Sink.m_emitted;
  check_int "no writer, no bytes" 0 (Obs.Sink.bytes_written sink)

let test_memory_keep_filters_capture_only () =
  let sink, events = Obs.Sink.memory ~keep:Obs.Sink.not_sim_step () in
  let collector = Obs.Collector.create () in
  Obs.Sink.attach sink (Obs.Collector.handle collector);
  Obs.Sink.emit sink (Event.Txn_begin { txn = 1 });
  Obs.Sink.emit sink (Event.Sim_step { txn = 1; step = 0 });
  Obs.Sink.emit sink (Event.Txn_commit { txn = 1 });
  check_int "capture skips the noise" 2 (List.length (events ()));
  check_int "collector still counts it" 1
    (Obs.Registry.counter
       (Obs.Collector.registry collector)
       "events.sim_step")

(* A capture has no bound: a long run keeps its first event. *)
let test_memory_keeps_the_whole_run () =
  let clock = ref 0.0 in
  let sink, events = Obs.Sink.memory ~clock:(fun () -> !clock) () in
  let length = 300_000 in
  for txn = 1 to length do
    clock := float_of_int txn;
    Obs.Sink.emit sink (Event.Txn_begin { txn })
  done;
  let captured = events () in
  check_int "every event" length (List.length captured);
  check_bool "in emission order" true
    (List.for_all2
       (fun index event ->
         event.Event.time = float_of_int (index + 1)
         && event.Event.kind = Event.Txn_begin { txn = index + 1 })
       (List.init length Fun.id) captured)

(* ------------------------------------------------------------------ Trace *)

let test_trace_exports_wait_span () =
  let events =
    [ { Event.time = 0.0; kind = Event.Txn_begin { txn = 1 } };
      { Event.time = 10.0; kind = wait 1 "db1/x" };
      { Event.time = 30.0; kind = grant 1 "db1/x" };
      { Event.time = 50.0; kind = Event.Txn_commit { txn = 1 } } ]
  in
  let rendered =
    Obs.Json.to_string (Obs.Trace.to_json [ ("proposed", events) ])
  in
  let contains needle haystack =
    let nlen = String.length needle in
    let hlen = String.length haystack in
    let rec scan index =
      index + nlen <= hlen
      && (String.equal (String.sub haystack index nlen) needle
          || scan (index + 1))
    in
    scan 0
  in
  check_bool "has a wait span" true (contains "\"wait db1/x\"" rendered);
  check_bool "has the process name" true (contains "\"proposed\"" rendered);
  check_bool "closes the txn span" true (contains "\"committed\"" rendered)

(* ------------------------------------------------------------------- Json *)

(* The string-building encoder [Obs.Json] had before it appended straight
   into a buffer, kept verbatim as the byte-for-byte oracle. *)
module Reference_json = struct
  open Obs.Json

  let escape text =
    let buffer = Buffer.create (String.length text + 2) in
    String.iter
      (fun char ->
        match char with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\r' -> Buffer.add_string buffer "\\r"
        | '\t' -> Buffer.add_string buffer "\\t"
        | char when Char.code char < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code char))
        | char -> Buffer.add_char buffer char)
      text;
    Buffer.contents buffer

  let float_repr value =
    if not (Float.is_finite value) then "null"
    else if Float.is_integer value && Float.abs value < 1e15 then
      Printf.sprintf "%.0f" value
    else Printf.sprintf "%.6g" value

  let rec write buffer ~indent ~level json =
    let pad level = String.make (level * indent) ' ' in
    match json with
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Int n -> Buffer.add_string buffer (string_of_int n)
    | Float f -> Buffer.add_string buffer (float_repr f)
    | String s ->
      Buffer.add_char buffer '"';
      Buffer.add_string buffer (escape s);
      Buffer.add_char buffer '"'
    | List [] -> Buffer.add_string buffer "[]"
    | List items ->
      Buffer.add_string buffer "[";
      List.iteri
        (fun index item ->
          if index > 0 then Buffer.add_char buffer ',';
          if indent > 0 then begin
            Buffer.add_char buffer '\n';
            Buffer.add_string buffer (pad (level + 1))
          end;
          write buffer ~indent ~level:(level + 1) item)
        items;
      if indent > 0 then begin
        Buffer.add_char buffer '\n';
        Buffer.add_string buffer (pad level)
      end;
      Buffer.add_string buffer "]"
    | Obj [] -> Buffer.add_string buffer "{}"
    | Obj fields ->
      Buffer.add_string buffer "{";
      List.iteri
        (fun index (key, value) ->
          if index > 0 then Buffer.add_char buffer ',';
          if indent > 0 then begin
            Buffer.add_char buffer '\n';
            Buffer.add_string buffer (pad (level + 1))
          end;
          Buffer.add_char buffer '"';
          Buffer.add_string buffer (escape key);
          Buffer.add_string buffer "\": ";
          write buffer ~indent ~level:(level + 1) value)
        fields;
      if indent > 0 then begin
        Buffer.add_char buffer '\n';
        Buffer.add_string buffer (pad level)
      end;
      Buffer.add_string buffer "}"

  let to_string ?(indent = 0) json =
    let buffer = Buffer.create 256 in
    write buffer ~indent ~level:0 json;
    Buffer.contents buffer
end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let float_edges =
  [ -0.0; 0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e15 -. 1.0;
    -.(1e15 -. 1.0); 1e15; -1e15; 0.5; 1e-7; 123456.5 ]

let int_edges = [ min_int; max_int; -1; 0; 1; -1234567 ]

(* Strings mix plain runs with every byte class the escaper treats apart:
   quote, backslash, the control bytes 0x00-0x1f, DEL and UTF-8. *)
let gen_json_string =
  let open QCheck.Gen in
  let byte low high = map (fun code -> String.make 1 (Char.chr code)) (int_range low high) in
  let fragment =
    frequency
      [ (3, string_size ~gen:printable (int_bound 4));
        (2, oneofl [ "\""; "\\"; "\x7f"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x94\x92" ]);
        (2, byte 0x00 0x1f);
        (1, byte 0x80 0xff) ]
  in
  map (String.concat "") (list_size (int_bound 5) fragment)

let gen_json_float =
  let open QCheck.Gen in
  frequency
    [ (2, oneofl float_edges);
      (2, map float_of_int small_signed_int);
      (1, map (fun n -> float_of_int (n mod 1_000_000_000_000_000)) int);
      (1, map float_of_int int);
      (2, float) ]

let gen_json =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (1, map (fun n -> Obs.Json.Int n) (oneofl int_edges));
        (2, map (fun n -> Obs.Json.Int n) (oneof [ small_signed_int; int ]));
        (3, map (fun f -> Obs.Json.Float f) gen_json_float);
        (3, map (fun s -> Obs.Json.String s) gen_json_string) ]
  in
  sized_size (int_bound 40)
  @@ fix (fun self size ->
         if size = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun items -> Obs.Json.List items)
                     (list_size (int_bound 4) (self (size / 3))));
               (1, map (fun fields -> Obs.Json.Obj fields)
                     (list_size (int_bound 4)
                        (pair gen_json_string (self (size / 3))))) ])

let encodes_like_reference json =
  List.for_all
    (fun indent ->
      String.equal (Obs.Json.to_string ~indent json)
        (Reference_json.to_string ~indent json))
    [ 0; 2 ]
  &&
  (* [add] appends: what the buffer already held stays in front *)
  let buffer = Buffer.create 1 in
  Buffer.add_string buffer "prefix";
  Obs.Json.add buffer json;
  String.equal (Buffer.contents buffer) ("prefix" ^ Reference_json.to_string json)

let test_json_edges_match_reference () =
  let open Obs.Json in
  let check_string = Alcotest.(check string) in
  let document =
    Obj
      [ ("quote\"back\\slash\x00\x1f\x7f\xc3\xa9",
         String "tab\tnl\nrc\r\x01\x1f\x7f\xe2\x82\xac\"\\");
        ("ints", List (List.map (fun n -> Int n) int_edges));
        ("floats", List (List.map (fun f -> Float f) float_edges));
        ("empty", List [ List []; Obj []; Obj [ ("", List []) ] ]);
        ("nested", Obj [ ("a", Obj [ ("b", List [ Null; Bool true; Bool false ]) ]) ]) ]
  in
  List.iter
    (fun indent ->
      check_string (Printf.sprintf "indent %d" indent)
        (Reference_json.to_string ~indent document)
        (to_string ~indent document))
    [ 0; 1; 2 ];
  check_string "-0.0 keeps its sign" "-0" (to_string (Float (-0.0)));
  check_string "largest plain integral float" "999999999999999"
    (to_string (Float (1e15 -. 1.0)));
  check_string "nan is null" "null" (to_string (Float Float.nan));
  check_string "min_int" (string_of_int min_int) (to_string (Int min_int));
  check_string "0x1f escapes" "\"\\u001f\"" (to_string (String "\x1f"));
  let path = Filename.temp_file "colock_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun channel ->
          output ~indent:2 channel document);
      check_string "output writes what to_string returns"
        (Reference_json.to_string ~indent:2 document)
        (read_file path))

let test_json_matches_reference () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 1987 |])
    (QCheck.Test.make ~count:2000 ~name:"Json.add = reference encoder"
       (QCheck.make ~print:(Reference_json.to_string ~indent:2) gen_json)
       encodes_like_reference)

(* ------------------------------------------------------------------ Event *)

(* One trace line, as a JSONL sink writes it. *)
let written event =
  let buffer = Buffer.create 128 in
  Event.add_line buffer event;
  Buffer.contents buffer

module Oracle = Event_oracle.Event

let gen_event_int =
  QCheck.Gen.(frequency [ (1, oneofl int_edges); (3, small_signed_int); (1, int) ])

let gen_event_time =
  QCheck.Gen.(
    frequency
      [ (2, oneofl [ -0.0; 0.0; 0.5; 1e15; Float.nan; Float.infinity ]);
        (3, map float_of_int small_nat);
        (1, gen_json_float) ])

let gen_lu =
  QCheck.Gen.(
    option
      (let+ lu_kind = gen_json_string and+ lu_depth = gen_event_int in
       { Event.lu_kind; lu_depth }))

let gen_holders =
  QCheck.Gen.(
    list_size (int_bound 3)
      (let+ h_txn = gen_event_int
       and+ h_mode = gen_json_string
       and+ h_lu = gen_lu in
       { Event.h_txn; h_mode; h_lu }))

(* Every kind, each field drawn apart: strings that need escaping, the int
   edges, empty and non-empty lists, LU tags present and absent. *)
let gen_kind =
  let open QCheck.Gen in
  let int = gen_event_int and text = gen_json_string in
  let ints = list_size (int_bound 3) int in
  oneof
    [ (let+ txn = int and+ resource = text and+ mode = text and+ lu = gen_lu in
       Event.Lock_requested { txn; resource; mode; lu });
      (let+ txn = int
       and+ resource = text
       and+ mode = text
       and+ immediate = bool
       and+ lu = gen_lu
       and+ holders = gen_holders in
       Event.Lock_granted { txn; resource; mode; immediate; lu; holders });
      (let+ txn = int
       and+ resource = text
       and+ mode = text
       and+ blockers = ints
       and+ lu = gen_lu
       and+ holders = gen_holders in
       Event.Lock_waited { txn; resource; mode; blockers; lu; holders });
      (let+ txn = int and+ resource = text and+ lu = gen_lu in
       Event.Lock_released { txn; resource; lu });
      (let+ txn = int
       and+ resource = text
       and+ from_mode = text
       and+ to_mode = text
       and+ lu = gen_lu in
       Event.Conversion { txn; resource; from_mode; to_mode; lu });
      (let+ txn = int and+ node = text and+ mode = text
       and+ released_children = int in
       Event.Escalation { txn; node; mode; released_children });
      (let+ txn = int and+ node = text and+ mode = text in
       Event.Deescalation { txn; node; mode });
      (let+ cycle = ints in
       Event.Deadlock_detected { cycle });
      (let+ txn = int and+ restarts = int in
       Event.Victim_aborted { txn; restarts });
      (let+ txn = int and+ resource = text and+ waited = int and+ lu = gen_lu in
       Event.Timeout_abort { txn; resource; waited; lu });
      map (fun txn -> Event.Txn_begin { txn }) int;
      map (fun txn -> Event.Txn_commit { txn }) int;
      (let+ txn = int and+ reason = text in
       Event.Txn_abort { txn; reason });
      (let+ txn = int and+ query = text and+ rows = int
       and+ locks_requested = int in
       Event.Query_executed { txn; query; rows; locks_requested });
      (let+ txn = int and+ step = int in
       Event.Sim_step { txn; step });
      (let+ edges = list_size (int_bound 3) (pair int int) in
       Event.Waits_for { edges });
      map (fun label -> Event.Run_meta { label }) text;
      (let+ rule = text and+ value = gen_event_time
       and+ threshold = gen_event_time in
       Event.Slo_breach { rule; value; threshold });
      (let+ txn = int and+ priority = text and+ decision = text in
       Event.Admission { txn; priority; decision });
      (let+ limit = int and+ inflight = int and+ queued = int and+ shed = int in
       Event.Admission_limit { limit; inflight; queued; shed });
      (let+ from_state = text and+ to_state = text in
       Event.Breaker { from_state; to_state });
      (let+ txn = int and+ restarts = int in
       Event.Retry_denied { txn; restarts });
      (let+ txn = int and+ policy = text and+ depth = int in
       Event.Contention_abort { txn; policy; depth }) ]

let gen_event =
  QCheck.Gen.(
    let+ time = gen_event_time and+ kind = gen_kind in
    { Event.time; kind })

(* A float as it reads back from its own text: [%.6g] rounds the ones
   that are not integral below 1e15. *)
let through_text value =
  float_of_string (Obs.Json.to_string (Obs.Json.Float value))

let floats_of { Event.time; kind } =
  match kind with
  | Event.Slo_breach { value; threshold; _ } -> [ time; value; threshold ]
  | _ -> [ time ]

let rounded { Event.time; kind } =
  { Event.time = through_text time;
    kind =
      (match kind with
       | Event.Slo_breach breach ->
         Event.Slo_breach
           { breach with
             value = through_text breach.value;
             threshold = through_text breach.threshold }
       | kind -> kind) }

(* The line is the tree encoder's, byte for byte; with finite values it
   decodes back to the event, floats as their text rounds them. *)
let writes_like_oracle event =
  let line = written event in
  String.equal line (Obs.Json.to_string (Oracle.to_json event) ^ "\n")
  && ((not (List.for_all Float.is_finite (floats_of event)))
     ||
     match Obs.Json.of_string line with
     | Error _ -> false
     | Ok json -> (
       match Event.of_json json with
       | Ok decoded -> decoded = rounded event
       | Error _ -> false))

let test_writer_matches_oracle () =
  let rand = Random.State.make [| 1990 |] in
  let kinds =
    List.init 1000 (fun _ -> Event.name (gen_kind rand))
    |> List.sort_uniq String.compare
  in
  check_int "the generator draws every kind" 23 (List.length kinds);
  QCheck.Test.check_exn ~rand
    (QCheck.Test.make ~count:3000 ~name:"event line = tree encoder"
       (QCheck.make ~print:(fun event -> String.escaped (written event))
          gen_event)
       writes_like_oracle)

(* ------------------------------------------------------------------ Jsonl *)

(* Every committed trace that [Jsonl] wrote (the why.t pair was written by
   hand, with another field order, and is not among them). *)
let encoder_fixtures =
  [ "analyze.t/fixture.jsonl"; "top.t/fixture.jsonl"; "blame.t/fixture.jsonl";
    "certify.t/clean.jsonl"; "certify.t/cycle.jsonl"; "certify.t/nontwopl.jsonl" ]

let test_fixtures_reencode () =
  List.iter
    (fun fixture ->
      let events, errors = Obs.Jsonl.load fixture in
      Alcotest.(check (list string)) (fixture ^ " decodes cleanly") [] errors;
      let copy = Filename.temp_file "colock_reencode" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove copy)
        (fun () ->
          Out_channel.with_open_bin copy (fun channel ->
              List.iter (Obs.Jsonl.handler channel) events);
          Alcotest.(check string)
            (fixture ^ " re-encodes byte for byte")
            (read_file fixture) (read_file copy)))
    encoder_fixtures

let flush_events =
  [ (0.0, Event.Run_meta { label = "flush \xe2\x9c\x93" });
    (1.0, Event.Txn_begin { txn = 1 });
    (2.5,
     Event.Lock_waited
       { txn = 1; resource = "db1/x"; mode = "X"; blockers = [ 2 ];
         lu = Some { Event.lu_kind = "BLU"; lu_depth = 2 };
         holders = [ { Event.h_txn = 2; h_mode = "S"; h_lu = None } ] });
    (3.0, Event.Waits_for { edges = [ (1, 2) ] });
    (4.0, Event.Txn_abort { txn = 1; reason = "said \"no\"\n\ttwice\x01" });
    (1e6, Event.Txn_commit { txn = 2 }) ]

(* After each event the file, read on a second channel, holds exactly the
   lines so far: the handler flushes every line and never leaves one torn. *)
let test_jsonl_handler_flushes_every_line () =
  let path = Filename.temp_file "colock_flush" ".jsonl" in
  let channel = open_out_bin path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr channel;
      Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.create [] in
      Obs.Sink.attach sink
        (Obs.Jsonl.handler ~meter:(Obs.Sink.meter sink) channel);
      List.iteri
        (fun index (time, kind) ->
          Obs.Sink.emit_at sink ~time kind;
          let expected =
            List.filteri (fun position _ -> position <= index) flush_events
            |> List.map (fun (time, kind) -> { Event.time; kind })
          in
          let events, errors = Obs.Jsonl.load path in
          let label = Printf.sprintf "after event %d: " (index + 1) in
          check_bool (label ^ "every event so far") true (events = expected);
          Alcotest.(check (list string)) (label ^ "no diagnostics") [] errors;
          check_int (label ^ "bytes_written is the file size")
            (Unix.stat path).Unix.st_size
            (Obs.Sink.bytes_written sink))
        flush_events)

(* [read_runs] over [lines] written to a file: each run as its label and
   the times of its events, the diagnostics, and the summary. *)
let read_runs_of lines =
  let path = Filename.temp_file "colock_runs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun channel ->
          List.iter (output_string channel) lines);
      let runs = ref [] and notes = ref [] in
      let summary =
        Obs.Jsonl.read_runs path
          ~on_error:(fun note -> notes := note :: !notes)
          ~start:(fun label -> (label, ref []))
          ~push:(fun (_, times) event -> times := event.Event.time :: !times)
          ~flush:(fun label (started, times) ->
            check_bool "a run flushes under the label it started with" true
              (String.equal label started);
            runs := (label, List.rev !times) :: !runs)
      in
      (List.rev !runs, List.rev !notes, summary))

let line time kind = written { Event.time; kind }
let meta label = line 0.0 (Event.Run_meta { label })
let begin_at time = line time (Event.Txn_begin { txn = 1 })

let check_runs = Alcotest.(check (list (pair string (list (float 0.0)))))

let test_read_runs_splits_at_run_meta () =
  let runs, notes, summary =
    read_runs_of
      [ begin_at 1.0; meta "alpha"; begin_at 2.0; begin_at 3.0; meta "empty";
        meta "beta"; begin_at 4.0 ]
  in
  check_runs "leading run-0, then one run per delimiter, empty ones too"
    [ ("run-0", [ 1.0 ]); ("alpha", [ 2.0; 3.0 ]); ("empty", []);
      ("beta", [ 4.0 ]) ]
    runs;
  Alcotest.(check (list string)) "no diagnostics" [] notes;
  check_int "decoded, delimiters included" 7 summary.Obs.Jsonl.decoded;
  check_bool "delimited" true summary.Obs.Jsonl.delimited

let test_read_runs_labels_undelimited_run () =
  let runs, notes, summary =
    read_runs_of [ begin_at 1.0; "garbage\n"; begin_at 2.0 ]
  in
  check_runs "the whole trace is run-0" [ ("run-0", [ 1.0; 2.0 ]) ] runs;
  Alcotest.(check (list string)) "the bad line, then the missing delimiter"
    [ "line 2: unexpected character 'g'";
      "no Run_meta delimiter; labelling the whole trace run-0" ]
    notes;
  check_int "decoded" 2 summary.Obs.Jsonl.decoded;
  check_bool "not delimited" false summary.Obs.Jsonl.delimited;
  let runs, notes, summary = read_runs_of [ "garbage\n" ] in
  check_runs "no event, no run" [] runs;
  check_int "one diagnostic" 1 (List.length notes);
  check_int "nothing decoded" 0 summary.Obs.Jsonl.decoded

let () =
  Alcotest.run "obs"
    [ ("histogram",
       [ Alcotest.test_case "empty" `Quick test_histogram_empty;
         Alcotest.test_case "single sample" `Quick
           test_histogram_single_sample;
         Alcotest.test_case "overflow bucket" `Quick
           test_histogram_overflow_bucket;
         Alcotest.test_case "negative clamps" `Quick
           test_histogram_negative_clamps;
         Alcotest.test_case "quantiles ordered" `Quick
           test_histogram_quantiles_ordered;
         Alcotest.test_case "bucket counts" `Quick
           test_histogram_bucket_counts ]);
      ("capture",
       [ Alcotest.test_case "keeps the whole run" `Quick
           test_memory_keeps_the_whole_run ]);
      ("collector",
       [ Alcotest.test_case "wait->grant pairing" `Quick
           test_collector_pairs_wait_to_grant;
         Alcotest.test_case "txn response" `Quick
           test_collector_txn_response ]);
      ("sink",
       [ Alcotest.test_case "filter" `Quick test_sink_filter_drops_sim_steps;
         Alcotest.test_case "meter counts emissions" `Quick
           test_sink_meter_counts_emissions;
         Alcotest.test_case "memory keep" `Quick
           test_memory_keep_filters_capture_only ]);
      ("trace",
       [ Alcotest.test_case "wait span" `Quick test_trace_exports_wait_span ]);
      ("json",
       [ Alcotest.test_case "edge values match the reference" `Quick
           test_json_edges_match_reference;
         Alcotest.test_case "random documents match the reference" `Quick
           test_json_matches_reference ]);
      ("event",
       [ Alcotest.test_case "every kind writes the tree encoder's line" `Quick
           test_writer_matches_oracle ]);
      ("jsonl",
       [ Alcotest.test_case "committed traces re-encode exactly" `Quick
           test_fixtures_reencode;
         Alcotest.test_case "handler flushes every line" `Quick
           test_jsonl_handler_flushes_every_line;
         Alcotest.test_case "runs split at Run_meta" `Quick
           test_read_runs_splits_at_run_meta;
         Alcotest.test_case "an undelimited trace is run-0" `Quick
           test_read_runs_labels_undelimited_run ])
    ]
