(* The differential profiler: two contention profiles in, one attribution
   report out — *where* the wait-time delta between them lives.

   Each partition is rebuilt from the raw wait spans (not from the
   profiles' own aggregates) so that it genuinely partitions blocked time:

     levels     span duration on its LU kind ("untagged" when bare)
     depths     span duration on its graph depth, "untagged" bucket kept
     resources  span duration on its resource
     cells      duration split equally across the distinct holder modes
                (or the "queue" pseudo-holder) — Profile's own matrix
                charges each cell in full, which cannot conserve a delta
     blockers   duration split equally across the blocking transactions
                (or "queue"), as in Blame's equal-split discipline

   Equal splits are inexact in floating point; the per-span residue is
   folded into the first (sorted) share, and the per-partition residue
   between [sum of deltas] and [cand_total - base_total] is folded into
   the largest-|delta| entry, iterated to a fixed point. The result: every
   partition's deltas sum exactly to the total delta, and anything present
   on one side only is kept as explicit drift. *)

type status = Both | Only_base | Only_cand

type entry = {
  e_key : string;
  e_base : float;
  e_cand : float;
  e_delta : float;
  e_base_waits : int;
  e_cand_waits : int;
  e_status : status;
}

type report = {
  label : string option;
  base_total : float;
  cand_total : float;
  delta : float;
  base_waits : int;
  cand_waits : int;
  levels : entry list;
  depths : entry list;
  resources : entry list;
  cells : entry list;
  blockers : entry list;
}

(* ------------------------------------------------------------- tallying *)

module String_map = Map.Make (String)

(* [duration] split equally across the (sorted, distinct) [keys]; the
   float residue of the equal split lands on the first key so the shares
   sum to [duration] exactly. *)
let equal_split duration keys =
  match List.sort_uniq String.compare keys with
  | [] -> []
  | [ key ] -> [ (key, duration) ]
  | first :: rest as keys ->
    let width = duration /. float_of_int (List.length keys) in
    let tail_total =
      List.fold_left (fun total _key -> total +. width) 0.0 rest
    in
    (first, duration -. tail_total) :: List.map (fun key -> (key, width)) rest

let level_key (span : Profile.span) =
  match span.Spans.s_lu with
  | Some { Event.lu_kind; _ } -> lu_kind
  | None -> "untagged"

let depth_key (span : Profile.span) =
  match span.Spans.s_lu with
  | Some { Event.lu_depth; _ } -> string_of_int lu_depth
  | None -> "untagged"

let cell_keys (span : Profile.span) =
  let holders =
    match span.Spans.s_holder_modes with
    | [] -> [ "queue" ]
    | modes -> modes
  in
  List.map (fun holder -> span.Spans.s_mode ^ "<-" ^ holder) holders

let blocker_keys (span : Profile.span) =
  match span.Spans.s_blockers with
  | [] -> [ "queue" ]
  | blockers -> List.map (fun txn -> "T" ^ string_of_int txn) blockers

(* key -> (blocked, waits) over one report's spans, with [shares] deciding
   how each span's duration lands on keys (shares must sum to it). *)
let tally shares (profile : Profile.report) =
  List.fold_left
    (fun map span ->
      List.fold_left
        (fun map (key, weight) ->
          let blocked, waits =
            match String_map.find_opt key map with
            | Some cell -> cell
            | None -> (0.0, 0)
          in
          String_map.add key (blocked +. weight, waits + 1) map)
        map
        (shares span))
    String_map.empty profile.Profile.spans

let single key_of span = [ (key_of span, Profile.duration span) ]

let split_over keys_of span = equal_split (Profile.duration span) (keys_of span)

(* -------------------------------------------------- partition assembly *)

let rank entries =
  List.sort
    (fun a b ->
      match Float.compare b.e_delta a.e_delta with
      | 0 -> String.compare a.e_key b.e_key
      | order -> order)
    entries

(* Folds the gap between [total] and the sum of deltas into the
   largest-|delta| entry (ties: smallest key), iterating because one float
   addition can leave a last-ulp gap of its own. *)
let settle ~total entries =
  let sum entries =
    List.fold_left (fun sum entry -> sum +. entry.e_delta) 0.0 entries
  in
  let fold_once entries =
    let residue = total -. sum entries in
    if residue = 0.0 || entries = [] then entries
    else
      let winner =
        List.fold_left
          (fun best entry ->
            match best with
            | Some best
              when Float.abs best.e_delta > Float.abs entry.e_delta
                   || (Float.abs best.e_delta = Float.abs entry.e_delta
                       && String.compare best.e_key entry.e_key <= 0) ->
              Some best
            | Some _ | None -> Some entry)
          None entries
      in
      match winner with
      | None -> entries
      | Some winner ->
        List.map
          (fun entry ->
            if String.equal entry.e_key winner.e_key then
              { entry with e_delta = entry.e_delta +. residue }
            else entry)
          entries
  in
  let rec go entries remaining =
    if remaining = 0 || total -. sum entries = 0.0 then entries
    else go (fold_once entries) (remaining - 1)
  in
  go entries 4

let partition ~total shares base cand =
  let base = tally shares base and cand = tally shares cand in
  let keys =
    String_map.union (fun _key left _right -> Some left) base cand
    |> String_map.bindings |> List.map fst
  in
  List.map
    (fun key ->
      let side map =
        match String_map.find_opt key map with
        | Some cell -> cell
        | None -> (0.0, 0)
      in
      let base_blocked, base_waits = side base in
      let cand_blocked, cand_waits = side cand in
      let status =
        match base_waits, cand_waits with
        | 0, _ -> Only_cand
        | _, 0 -> Only_base
        | _, _ -> Both
      in
      { e_key = key; e_base = base_blocked; e_cand = cand_blocked;
        e_delta = cand_blocked -. base_blocked; e_base_waits = base_waits;
        e_cand_waits = cand_waits; e_status = status })
    keys
  |> settle ~total |> rank

let of_reports ?label ~(base : Profile.report) ~(cand : Profile.report) () =
  let delta = cand.Profile.total_blocked -. base.Profile.total_blocked in
  let part shares = partition ~total:delta shares base cand in
  { label =
      (match label with
       | Some _ -> label
       | None -> (
         match cand.Profile.label with
         | Some _ as label -> label
         | None -> base.Profile.label));
    base_total = base.Profile.total_blocked;
    cand_total = cand.Profile.total_blocked;
    delta;
    base_waits = base.Profile.wait_count;
    cand_waits = cand.Profile.wait_count;
    levels = part (single level_key);
    depths = part (single depth_key);
    resources = part (single (fun span -> span.Spans.s_resource));
    cells = part (split_over cell_keys);
    blockers = part (split_over blocker_keys) }

let conserves report =
  let close sum =
    Float.abs (sum -. report.delta)
    <= 1e-9 *. Float.max 1.0 (Float.abs report.delta)
  in
  List.for_all
    (fun entries ->
      close (List.fold_left (fun sum entry -> sum +. entry.e_delta) 0.0 entries))
    [ report.levels; report.depths; report.resources; report.cells;
      report.blockers ]

(* -------------------------------------------------------- run pairing *)

type pairing = {
  pairs : report list;
  only_base : string list;
  only_cand : string list;
}

let run_label (profile : Profile.report) =
  match profile.Profile.label with
  | Some label -> label
  | None -> "(unlabelled)"

let pair_reports ~base ~cand =
  let consumed = Array.make (List.length cand) false in
  let pairs = ref [] in
  let only_base = ref [] in
  List.iter
    (fun base_run ->
      let matched = ref None in
      List.iteri
        (fun index cand_run ->
          if
            !matched = None
            && (not consumed.(index))
            && Option.equal String.equal base_run.Profile.label
                 cand_run.Profile.label
          then begin
            consumed.(index) <- true;
            matched := Some cand_run
          end)
        cand;
      match !matched with
      | Some cand_run ->
        pairs := of_reports ~base:base_run ~cand:cand_run () :: !pairs
      | None -> only_base := run_label base_run :: !only_base)
    base;
  let only_cand =
    List.filteri (fun index _run -> not consumed.(index)) cand
    |> List.map run_label
  in
  { pairs = List.rev !pairs; only_base = List.rev !only_base; only_cand }

(* ----------------------------------------------------------- rendering *)

let status_text = function
  | Both -> ""
  | Only_base -> " (removed)"
  | Only_cand -> " (added)"

let json_of_entry entry =
  Json.Obj
    [ ("key", Json.String entry.e_key);
      ("base", Json.Float entry.e_base);
      ("cand", Json.Float entry.e_cand);
      ("delta", Json.Float entry.e_delta);
      ("base_waits", Json.Int entry.e_base_waits);
      ("cand_waits", Json.Int entry.e_cand_waits);
      ( "status",
        Json.String
          (match entry.e_status with
           | Both -> "both"
           | Only_base -> "only_base"
           | Only_cand -> "only_cand") ) ]

let to_json report =
  Json.Obj
    [ ( "label",
        match report.label with
        | Some label -> Json.String label
        | None -> Json.Null );
      ("base_total", Json.Float report.base_total);
      ("cand_total", Json.Float report.cand_total);
      ("delta", Json.Float report.delta);
      ("base_waits", Json.Int report.base_waits);
      ("cand_waits", Json.Int report.cand_waits);
      ("levels", Json.List (List.map json_of_entry report.levels));
      ("depths", Json.List (List.map json_of_entry report.depths));
      ("resources", Json.List (List.map json_of_entry report.resources));
      ("cells", Json.List (List.map json_of_entry report.cells));
      ("blockers", Json.List (List.map json_of_entry report.blockers)) ]

let pairing_to_json pairing =
  Json.Obj
    [ ("pairs", Json.List (List.map to_json pairing.pairs));
      ( "only_base",
        Json.List
          (List.map (fun label -> Json.String label) pairing.only_base) );
      ( "only_cand",
        Json.List
          (List.map (fun label -> Json.String label) pairing.only_cand) ) ]

let truncated limit items = List.filteri (fun index _item -> index < limit) items

let pp ?(top = 10) formatter report =
  let line format = Format.fprintf formatter format in
  (match report.label with
   | Some label -> line "=== wait-time diff: %s ===@," label
   | None -> line "=== wait-time diff ===@,");
  line "base blocked %g across %d wait(s); cand blocked %g across %d wait(s)@,"
    report.base_total report.base_waits report.cand_total report.cand_waits;
  if report.base_total > 0.0 then
    line "delta %+g (%+.1f%%)@," report.delta
      (100.0 *. report.delta /. report.base_total)
  else line "delta %+g@," report.delta;
  let table title entries ~bound =
    if entries <> [] then begin
      let shown = if bound then min top (List.length entries) else List.length entries in
      if bound && List.length entries > shown then
        line "@,%s (top %d of %d):@," title shown (List.length entries)
      else line "@,%s:@," title;
      line "  %12s %12s %12s %11s  %s@," "DELTA" "BASE" "CAND" "WAITS" "KEY";
      List.iter
        (fun entry ->
          line "  %+12g %12g %12g %5d->%-4d  %s%s@," entry.e_delta
            entry.e_base entry.e_cand entry.e_base_waits entry.e_cand_waits
            entry.e_key
            (status_text entry.e_status))
        (if bound then truncated top entries else entries)
    end
  in
  table "by lockable-unit level" report.levels ~bound:false;
  table "by graph depth" report.depths ~bound:false;
  table "resource deltas" report.resources ~bound:true;
  table "conflict-cell deltas (waiter<-holder)" report.cells ~bound:true;
  table "blocker deltas" report.blockers ~bound:true

let print ?top channel report =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@." (fun fmt -> pp ?top fmt) report

let print_drift channel pairing =
  List.iter
    (fun label ->
      Printf.fprintf channel
        "drift: run %s only in the base trace (not diffed)\n" label)
    pairing.only_base;
  List.iter
    (fun label ->
      Printf.fprintf channel
        "drift: run %s only in the candidate trace (not diffed)\n" label)
    pairing.only_cand
