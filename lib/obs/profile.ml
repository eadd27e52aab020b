(* The contention profiler: folds a lock-event stream — online as a sink
   handler, or offline from a decoded JSONL trace — into a report that says
   *where* blocked time lands on the object-specific lock graph.

   The unit of attribution is the wait span of [Spans]: opened by
   [Lock_waited], closed by the matching grant, the waiter's abort, or the
   end of stream.  Every span carries the waiter's lockable-unit annotation
   (BLU/HoLU/HeLU + depth) and the modes held by its blockers when the wait
   opened, so the same spans aggregate three ways: per LU level (the
   paper's granule question), per resource (hot spots), and per mode×mode
   conflict cell.  The sum over any of these partitions equals the total
   blocked time — the report never invents or loses a tick relative to the
   event stream. *)

type outcome = Spans.outcome = Granted | Aborted of string | Unfinished

type span = Spans.span

let duration = Spans.duration

type level_stat = {
  v_level : string;
  v_blocked : float;
  v_waits : int;
  v_resources : int;
}

type depth_stat = { d_depth : int; d_blocked : float; d_waits : int }

type resource_stat = {
  r_resource : string;
  r_lu : Event.lu option;
  r_blocked : float;
  r_waits : int;
}

type cell = {
  c_waiter : string;
  c_holder : string;  (* "queue" when blocked by the FIFO rule alone *)
  c_count : int;
  c_blocked : float;
}

type path_step = { p_resource : string; p_blocked : float }

type txn_path = {
  t_txn : int;
  t_blocked : float;
  t_critical : float;
  t_path : path_step list;
}

type report = {
  label : string option;
  events : int;
  first_time : float;
  last_time : float;
  total_blocked : float;
  wait_count : int;
  unfinished : int;
  spans : span list;
  levels : level_stat list;
  depths : depth_stat list;
  resources : resource_stat list;  (* blocked-time descending *)
  matrix : cell list;
  aborts : (string * int) list;
  txns : txn_path list;  (* critical-path descending *)
  snapshots : int;
  peak_wait_edges : int;
}

(* --------------------------------------------------------------- folding *)

type t = {
  fold : Spans.t;
  mutable spans : span list;  (* reversed; closed order *)
  mutable aborts : (string * int) list;
  mutable snapshots : int;
  mutable peak_wait_edges : int;
}

let create () =
  let fold = Spans.create () in
  let profile =
    { fold; spans = []; aborts = []; snapshots = 0; peak_wait_edges = 0 }
  in
  Spans.on_wait fold (fun span -> profile.spans <- span :: profile.spans);
  profile

let count_abort profile cause =
  let current = Option.value ~default:0 (List.assoc_opt cause profile.aborts) in
  profile.aborts <-
    (cause, current + 1) :: List.remove_assoc cause profile.aborts

let handle profile event =
  Spans.handle profile.fold event;
  (match Spans.abort_cause event.Event.kind with
   | Some cause -> count_abort profile cause
   | None -> ());
  match event.Event.kind with
  | Event.Waits_for { edges } ->
    profile.snapshots <- profile.snapshots + 1;
    let count = List.length edges in
    if count > profile.peak_wait_edges then profile.peak_wait_edges <- count
  | _ -> ()

(* ----------------------------------------------------- report assembly *)

let level_of span =
  match span.Spans.s_lu with
  | Some { Event.lu_kind; _ } -> lu_kind
  | None -> "untagged"

module String_map = Map.Make (String)
module Int_map = Map.Make (Int)

let assemble_levels spans =
  let accumulate map span =
    let level = level_of span in
    let blocked, waits, resources =
      match String_map.find_opt level map with
      | Some entry -> entry
      | None -> (0.0, 0, String_map.empty)
    in
    String_map.add level
      ( blocked +. duration span,
        waits + 1,
        String_map.add span.Spans.s_resource () resources )
      map
  in
  List.fold_left accumulate String_map.empty spans
  |> String_map.bindings
  |> List.map (fun (v_level, (v_blocked, v_waits, resources)) ->
         { v_level; v_blocked; v_waits;
           v_resources = String_map.cardinal resources })
  |> List.sort (fun a b ->
         match Float.compare b.v_blocked a.v_blocked with
         | 0 -> String.compare a.v_level b.v_level
         | order -> order)

let assemble_depths spans =
  let accumulate map span =
    match span.Spans.s_lu with
    | None -> map
    | Some { Event.lu_depth; _ } ->
      let blocked, waits =
        match Int_map.find_opt lu_depth map with
        | Some entry -> entry
        | None -> (0.0, 0)
      in
      Int_map.add lu_depth (blocked +. duration span, waits + 1) map
  in
  List.fold_left accumulate Int_map.empty spans
  |> Int_map.bindings
  |> List.map (fun (d_depth, (d_blocked, d_waits)) ->
         { d_depth; d_blocked; d_waits })

let assemble_resources spans =
  let accumulate map span =
    let lu, blocked, waits =
      match String_map.find_opt span.Spans.s_resource map with
      | Some entry -> entry
      | None -> (span.Spans.s_lu, 0.0, 0)
    in
    let lu = match lu with Some _ -> lu | None -> span.Spans.s_lu in
    String_map.add span.Spans.s_resource
      (lu, blocked +. duration span, waits + 1)
      map
  in
  List.fold_left accumulate String_map.empty spans
  |> String_map.bindings
  |> List.map (fun (r_resource, (r_lu, r_blocked, r_waits)) ->
         { r_resource; r_lu; r_blocked; r_waits })
  |> List.sort (fun a b ->
         match Float.compare b.r_blocked a.r_blocked with
         | 0 -> String.compare a.r_resource b.r_resource
         | order -> order)

let assemble_matrix spans =
  let accumulate map span =
    let holders =
      match span.Spans.s_holder_modes with [] -> [ "queue" ] | modes -> modes
    in
    List.fold_left
      (fun map holder ->
        let key = (span.Spans.s_mode, holder) in
        let count, blocked =
          match List.assoc_opt key map with
          | Some entry -> entry
          | None -> (0, 0.0)
        in
        (key, (count + 1, blocked +. duration span))
        :: List.remove_assoc key map)
      map holders
  in
  List.fold_left accumulate [] spans
  |> List.map (fun ((c_waiter, c_holder), (c_count, c_blocked)) ->
         { c_waiter; c_holder; c_count; c_blocked })
  |> List.sort (fun a b ->
         match Float.compare b.c_blocked a.c_blocked with
         | 0 -> compare (a.c_waiter, a.c_holder) (b.c_waiter, b.c_holder)
         | order -> order)

(* Longest wait chain per transaction: a span's wait is lengthened by the
   waits of the transactions blocking it, when those waits overlap it in
   time (the blocker was itself stuck while we waited on it).  Chains are
   memoized per span; the visiting set breaks wait-for cycles (deadlocks are
   exactly such cycles, and a deadlocked chain is still worth reporting —
   it just cannot extend through itself). *)
let assemble_txns spans =
  let spans = Array.of_list spans in
  let count = Array.length spans in
  let by_txn = Hashtbl.create 32 in
  Array.iteri
    (fun index span ->
      let known =
        Option.value ~default:[] (Hashtbl.find_opt by_txn span.Spans.s_txn)
      in
      Hashtbl.replace by_txn span.Spans.s_txn (index :: known))
    spans;
  let memo = Array.make count None in
  let visiting = Array.make count false in
  let rec chain index =
    match memo.(index) with
    | Some result -> result
    | None ->
      if visiting.(index) then (0.0, [])
      else begin
        visiting.(index) <- true;
        let span = spans.(index) in
        let extension =
          List.fold_left
            (fun best blocker ->
              List.fold_left
                (fun best candidate_index ->
                  let candidate = spans.(candidate_index) in
                  if
                    candidate.Spans.s_start < span.Spans.s_finish
                    && span.Spans.s_start < candidate.Spans.s_finish
                  then
                    let length, _path = chain candidate_index in
                    match best with
                    | Some (best_length, _) when best_length >= length -> best
                    | Some _ | None -> Some (length, candidate_index)
                  else best)
                best
                (Option.value ~default:[] (Hashtbl.find_opt by_txn blocker)))
            None span.Spans.s_blockers
        in
        let result =
          match extension with
          | None ->
            ( duration span,
              [ { p_resource = span.Spans.s_resource;
                  p_blocked = duration span } ] )
          | Some (length, next_index) ->
            let _, path = chain next_index in
            ( duration span +. length,
              { p_resource = span.Spans.s_resource; p_blocked = duration span }
              :: path )
        in
        visiting.(index) <- false;
        memo.(index) <- Some result;
        result
      end
  in
  Hashtbl.fold
    (fun txn indexes accu ->
      let blocked =
        List.fold_left
          (fun total index -> total +. duration spans.(index))
          0.0 indexes
      in
      let critical, path =
        List.fold_left
          (fun ((best_length, _) as best) index ->
            let (length, _) as candidate = chain index in
            if length > best_length then candidate else best)
          (0.0, []) indexes
      in
      { t_txn = txn; t_blocked = blocked; t_critical = critical;
        t_path = path }
      :: accu)
    by_txn []
  |> List.sort (fun a b ->
         match Float.compare b.t_critical a.t_critical with
         | 0 -> Int.compare a.t_txn b.t_txn
         | order -> order)

let finish ?label profile =
  (* the stream ended with waiters still queued: their blocked time up to
     the last event is attributed, marked unfinished *)
  Spans.finish profile.fold;
  let spans = List.rev profile.spans in
  let total_blocked =
    List.fold_left (fun total span -> total +. duration span) 0.0 spans
  in
  let unfinished =
    List.length
      (List.filter (fun span -> span.Spans.s_outcome = Unfinished) spans)
  in
  { label; events = Spans.events profile.fold;
    first_time = Spans.first_time profile.fold;
    last_time = Spans.last_time profile.fold; total_blocked;
    wait_count = List.length spans; unfinished; spans;
    levels = assemble_levels spans; depths = assemble_depths spans;
    resources = assemble_resources spans; matrix = assemble_matrix spans;
    aborts =
      List.sort (fun (a, _) (b, _) -> String.compare a b) profile.aborts;
    txns = assemble_txns spans; snapshots = profile.snapshots;
    peak_wait_edges = profile.peak_wait_edges }

let of_events ?label events =
  let profile = create () in
  List.iter (handle profile) events;
  finish ?label profile

(* ------------------------------------------------------------ rendering *)

let json_of_lu = function
  | None -> Json.Null
  | Some { Event.lu_kind; lu_depth } ->
    Json.Obj [ ("kind", Json.String lu_kind); ("depth", Json.Int lu_depth) ]

let to_json report =
  Json.Obj
    [ ( "label",
        match report.label with
        | Some label -> Json.String label
        | None -> Json.Null );
      ("events", Json.Int report.events);
      ("first_time", Json.Float report.first_time);
      ("last_time", Json.Float report.last_time);
      ("total_blocked", Json.Float report.total_blocked);
      ("wait_count", Json.Int report.wait_count);
      ("unfinished", Json.Int report.unfinished);
      ( "levels",
        Json.List
          (List.map
             (fun level ->
               Json.Obj
                 [ ("level", Json.String level.v_level);
                   ("blocked", Json.Float level.v_blocked);
                   ("waits", Json.Int level.v_waits);
                   ("resources", Json.Int level.v_resources) ])
             report.levels) );
      ( "depths",
        Json.List
          (List.map
             (fun depth ->
               Json.Obj
                 [ ("depth", Json.Int depth.d_depth);
                   ("blocked", Json.Float depth.d_blocked);
                   ("waits", Json.Int depth.d_waits) ])
             report.depths) );
      ( "resources",
        Json.List
          (List.map
             (fun resource ->
               Json.Obj
                 [ ("resource", Json.String resource.r_resource);
                   ("lu", json_of_lu resource.r_lu);
                   ("blocked", Json.Float resource.r_blocked);
                   ("waits", Json.Int resource.r_waits) ])
             report.resources) );
      ( "conflicts",
        Json.List
          (List.map
             (fun cell ->
               Json.Obj
                 [ ("waiter", Json.String cell.c_waiter);
                   ("holder", Json.String cell.c_holder);
                   ("count", Json.Int cell.c_count);
                   ("blocked", Json.Float cell.c_blocked) ])
             report.matrix) );
      ( "aborts",
        Json.Obj
          (List.map (fun (cause, count) -> (cause, Json.Int count))
             report.aborts) );
      ( "transactions",
        Json.List
          (List.map
             (fun txn ->
               Json.Obj
                 [ ("txn", Json.Int txn.t_txn);
                   ("blocked", Json.Float txn.t_blocked);
                   ("critical", Json.Float txn.t_critical);
                   ( "path",
                     Json.List
                       (List.map
                          (fun step ->
                            Json.Obj
                              [ ("resource", Json.String step.p_resource);
                                ("blocked", Json.Float step.p_blocked) ])
                          txn.t_path) ) ])
             report.txns) );
      ("snapshots", Json.Int report.snapshots);
      ("peak_wait_edges", Json.Int report.peak_wait_edges) ]

let truncated limit items = List.filteri (fun index _item -> index < limit) items

let lu_text = function
  | None -> "-"
  | Some { Event.lu_kind; lu_depth } -> Printf.sprintf "%s@%d" lu_kind lu_depth

let pp ?(top = 10) formatter report =
  let line format = Format.fprintf formatter format in
  (match report.label with
   | Some label -> line "=== contention report: %s ===@," label
   | None -> line "=== contention report ===@,");
  line "events %d, time %g..%g@," report.events report.first_time
    report.last_time;
  line "blocked time %g across %d wait(s), %d unfinished@,"
    report.total_blocked report.wait_count report.unfinished;
  if report.snapshots > 0 then
    line "wait-for snapshots %d, peak %d edge(s)@," report.snapshots
      report.peak_wait_edges;
  (match report.aborts with
   | [] -> ()
   | aborts ->
     line "aborts:%s@,"
       (String.concat ""
          (List.map
             (fun (cause, count) -> Printf.sprintf " %s=%d" cause count)
             aborts)));
  if report.levels <> [] then begin
    line "@,blocked time by lockable-unit level:@,";
    line "  %-10s %12s %8s %10s@," "LEVEL" "BLOCKED" "WAITS" "RESOURCES";
    List.iter
      (fun level ->
        line "  %-10s %12g %8d %10d@," level.v_level level.v_blocked
          level.v_waits level.v_resources)
      report.levels
  end;
  if report.depths <> [] then begin
    line "@,blocked time by graph depth:@,";
    line "  %-10s %12s %8s@," "DEPTH" "BLOCKED" "WAITS";
    List.iter
      (fun depth ->
        line "  %-10d %12g %8d@," depth.d_depth depth.d_blocked depth.d_waits)
      report.depths
  end;
  if report.resources <> [] then begin
    line "@,hot resources (top %d of %d):@,"
      (min top (List.length report.resources))
      (List.length report.resources);
    line "  %12s %8s %-10s %s@," "BLOCKED" "WAITS" "LU" "RESOURCE";
    List.iter
      (fun resource ->
        line "  %12g %8d %-10s %s@," resource.r_blocked resource.r_waits
          (lu_text resource.r_lu) resource.r_resource)
      (truncated top report.resources)
  end;
  if report.matrix <> [] then begin
    line "@,conflicts (waiter mode x holder mode):@,";
    line "  %-8s %-8s %8s %12s@," "WAITER" "HOLDER" "COUNT" "BLOCKED";
    List.iter
      (fun cell ->
        line "  %-8s %-8s %8d %12g@," cell.c_waiter cell.c_holder cell.c_count
          cell.c_blocked)
      report.matrix
  end;
  if report.txns <> [] then begin
    line "@,critical paths (top %d of %d):@,"
      (min top (List.length report.txns))
      (List.length report.txns);
    List.iter
      (fun txn ->
        line "  T%d blocked %g, critical %g: %s@," txn.t_txn txn.t_blocked
          txn.t_critical
          (String.concat " -> "
             (List.map
                (fun step ->
                  Printf.sprintf "%s (%g)" step.p_resource step.p_blocked)
                txn.t_path)))
      (truncated top report.txns)
  end

let print ?top channel report =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@." (fun fmt -> pp ?top fmt) report
