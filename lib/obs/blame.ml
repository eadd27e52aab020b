(* Causal blame: who caused each blocked tick.

   [Profile] answers *where* blocked time lands (level, depth, resource,
   conflict cell); this module answers *who* it lands on.  Every wait span
   of [Spans] is cut into segments at the moments its blocker set changes,
   and each segment's length is split equally across the blockers live in
   it, so concurrent holders share the blame and the shares of a span sum
   to its duration.  Summed over any partition (per blocker, per victim,
   per wait), blame therefore equals [Profile]'s [total_blocked] — the
   report never invents or loses a tick.

   Waits caused by the FIFO queue rule alone (no incompatible holder)
   charge the [Queue] pseudo-blocker, mirroring the ["queue"] holder of
   [Profile]'s conflict matrix. *)

type agent = Spans.agent = Txn of int | Queue

let compare_agent = Spans.compare_agent
let agent_label = function Txn txn -> Printf.sprintf "T%d" txn | Queue -> "queue"

type outcome = Spans.outcome = Granted | Aborted of string | Unfinished

type share = { sh_agent : agent; sh_mode : string option; sh_blame : float }

type wait = {
  w_txn : int;
  w_resource : string;
  w_mode : string;
  w_lu : Event.lu option;
  w_start : float;
  w_finish : float;
  w_outcome : outcome;
  w_shares : share list;  (* blame descending; sums to the span duration *)
}

let duration wait = Float.max 0.0 (wait.w_finish -. wait.w_start)

type txn_blame = {
  x_txn : int;
  x_begin : float option;
  x_end : (string * float) option;  (* ("commit" | abort reason, time) *)
  x_waits : wait list;  (* stream order *)
  x_blocked : float;  (* this transaction's own blocked time *)
  x_caused : float;  (* blame charged to it by everyone else's waits *)
}

type blocker_stat = { k_agent : agent; k_blame : float; k_waits : int }

type report = {
  label : string option;
  events : int;
  total_blocked : float;
  total_blamed : float;  (* conservation: equals [total_blocked] *)
  wait_count : int;
  waits : wait list;  (* stream order *)
  txns : txn_blame list;  (* txn ascending *)
  blockers : blocker_stat list;  (* blame descending, ties by agent *)
}

(* --------------------------------------------------------------- folding *)

type t = {
  fold : Spans.t;
  mutable waits : wait list;  (* reversed; closed order *)
  mutable lives : Spans.life list;  (* reversed; closed order *)
}

let add_charge charges agent mode amount =
  let rec bump = function
    | [] -> [ (agent, mode, amount) ]
    | (a, m, blame) :: rest when compare_agent a agent = 0 ->
      (* keep the first mode seen; the blocker may convert mid-wait *)
      let m = match m with Some _ -> m | None -> mode in
      (a, m, blame +. amount) :: rest
    | charge :: rest -> charge :: bump rest
  in
  bump charges

(* Each segment's length charged equally to its live blockers. *)
let charges_of segments =
  List.fold_left
    (fun charges { Spans.g_start; g_finish; g_live } ->
      let width = (g_finish -. g_start) /. float_of_int (List.length g_live) in
      List.fold_left
        (fun charges (agent, mode) -> add_charge charges agent mode width)
        charges g_live)
    [] segments

let wait_of_span (span : Spans.span) =
  let length = span.Spans.s_finish -. span.Spans.s_start in
  (* equal splits are inexact in floating point; fold the residual into
     the largest share so the shares sum to the span duration exactly *)
  let charges = charges_of span.Spans.s_segments in
  let total =
    List.fold_left (fun sum (_, _, blame) -> sum +. blame) 0.0 charges
  in
  let residual = length -. total in
  let charges =
    match charges with
    | [] -> if length > 0.0 then [ (Queue, None, length) ] else []
    | charges ->
      let largest =
        List.fold_left
          (fun best (agent, _, blame) ->
            match best with
            | Some (_, best_blame) when best_blame >= blame -> best
            | Some _ | None -> Some (agent, blame))
          None charges
      in
      (match largest with
       | None -> charges
       | Some (winner, _) ->
         List.map
           (fun ((agent, mode, blame) as charge) ->
             if compare_agent agent winner = 0 then
               (agent, mode, blame +. residual)
             else charge)
           charges)
  in
  let w_shares =
    List.map
      (fun (sh_agent, sh_mode, sh_blame) -> { sh_agent; sh_mode; sh_blame })
      charges
    |> List.sort (fun a b ->
           match Float.compare b.sh_blame a.sh_blame with
           | 0 -> compare_agent a.sh_agent b.sh_agent
           | order -> order)
  in
  { w_txn = span.Spans.s_txn; w_resource = span.Spans.s_resource;
    w_mode = span.Spans.s_mode; w_lu = span.Spans.s_lu;
    w_start = span.Spans.s_start; w_finish = span.Spans.s_finish;
    w_outcome = span.Spans.s_outcome; w_shares }

let create () =
  let fold = Spans.create () in
  let blame = { fold; waits = []; lives = [] } in
  Spans.on_wait fold (fun span ->
      blame.waits <- wait_of_span span :: blame.waits);
  Spans.on_life fold (fun life -> blame.lives <- life :: blame.lives);
  blame

let handle blame event = Spans.handle blame.fold event

(* ----------------------------------------------------- report assembly *)

module Int_map = Map.Make (Int)

let finish ?label blame =
  Spans.finish blame.fold;
  let waits = List.rev blame.waits in
  let shares = List.concat_map (fun wait -> wait.w_shares) waits in
  let sum amount items =
    List.fold_left (fun total item -> total +. amount item) 0.0 items
  in
  (* per-blocker aggregation *)
  let by_blocker = Hashtbl.create 64 in
  List.iter
    (fun { sh_agent; sh_blame; _ } ->
      let blame_total, count =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_blocker sh_agent)
      in
      Hashtbl.replace by_blocker sh_agent (blame_total +. sh_blame, count + 1))
    shares;
  let blockers =
    Hashtbl.fold
      (fun k_agent (k_blame, k_waits) stats ->
        { k_agent; k_blame; k_waits } :: stats)
      by_blocker []
    |> List.sort (fun a b ->
           match Float.compare b.k_blame a.k_blame with
           | 0 -> compare_agent a.k_agent b.k_agent
           | order -> order)
  in
  (* per-transaction trees: each transaction's first begin and first end,
     its own waits, and the blame charged to it *)
  let update key f map =
    Int_map.update key (fun entry -> Some (f entry)) map
  in
  let first current next =
    match current with Some _ -> current | None -> next
  in
  let lifecycles =
    List.fold_left
      (fun map { Spans.l_txn; l_begin; l_end } ->
        update l_txn
          (function
            | Some (begun, ended) -> (first begun l_begin, first ended l_end)
            | None -> (l_begin, l_end))
          map)
      Int_map.empty (List.rev blame.lives)
  in
  let own_waits =
    List.fold_left
      (fun map wait ->
        update wait.w_txn
          (fun known -> wait :: Option.value ~default:[] known)
          map)
      Int_map.empty blame.waits
  in
  let caused_by =
    List.fold_left
      (fun map share ->
        match share.sh_agent with
        | Queue -> map
        | Txn txn ->
          update txn
            (fun caused -> Option.value ~default:0.0 caused +. share.sh_blame)
            map)
      Int_map.empty shares
  in
  let find map txn ~default =
    Option.value ~default (Int_map.find_opt txn map)
  in
  let keys map = Int_map.fold (fun txn _ ids -> txn :: ids) map [] in
  let txns =
    List.sort_uniq Int.compare
      (keys lifecycles @ keys own_waits @ keys caused_by)
    |> List.map (fun txn ->
           let x_waits = find own_waits txn ~default:[] in
           let x_begin, x_end = find lifecycles txn ~default:(None, None) in
           { x_txn = txn; x_begin; x_end; x_waits;
             x_blocked = sum duration x_waits;
             x_caused = find caused_by txn ~default:0.0 })
  in
  { label; events = Spans.events blame.fold; total_blocked = sum duration waits;
    total_blamed = sum (fun share -> share.sh_blame) shares;
    wait_count = List.length waits; waits; txns; blockers }

let of_events ?label events =
  let blame = create () in
  List.iter (handle blame) events;
  finish ?label blame

(* ------------------------------------------------------------ rendering *)

let outcome_label = function
  | Granted -> "granted"
  | Aborted cause -> "aborted:" ^ cause
  | Unfinished -> "unfinished"

let json_of_share share =
  Json.Obj
    [ ("blocker", Json.String (agent_label share.sh_agent));
      ( "mode",
        match share.sh_mode with
        | Some mode -> Json.String mode
        | None -> Json.Null );
      ("blame", Json.Float share.sh_blame) ]

let json_of_wait wait =
  Json.Obj
    [ ("txn", Json.Int wait.w_txn);
      ("resource", Json.String wait.w_resource);
      ("mode", Json.String wait.w_mode);
      ("start", Json.Float wait.w_start);
      ("finish", Json.Float wait.w_finish);
      ("outcome", Json.String (outcome_label wait.w_outcome));
      ("shares", Json.List (List.map json_of_share wait.w_shares)) ]

let to_json report =
  Json.Obj
    [ ( "label",
        match report.label with
        | Some label -> Json.String label
        | None -> Json.Null );
      ("events", Json.Int report.events);
      ("total_blocked", Json.Float report.total_blocked);
      ("total_blamed", Json.Float report.total_blamed);
      ("wait_count", Json.Int report.wait_count);
      ( "transactions",
        Json.List
          (List.map
             (fun txn ->
               Json.Obj
                 [ ("txn", Json.Int txn.x_txn);
                   ( "begin",
                     match txn.x_begin with
                     | Some time -> Json.Float time
                     | None -> Json.Null );
                   ( "end",
                     match txn.x_end with
                     | Some (cause, time) ->
                       Json.Obj
                         [ ("cause", Json.String cause);
                           ("time", Json.Float time) ]
                     | None -> Json.Null );
                   ("blocked", Json.Float txn.x_blocked);
                   ("caused", Json.Float txn.x_caused);
                   ("waits", Json.List (List.map json_of_wait txn.x_waits)) ])
             report.txns) );
      ( "blockers",
        Json.List
          (List.map
             (fun stat ->
               Json.Obj
                 [ ("blocker", Json.String (agent_label stat.k_agent));
                   ("blame", Json.Float stat.k_blame);
                   ("waits", Json.Int stat.k_waits) ])
             report.blockers) ) ]

let truncated limit items = List.filteri (fun index _item -> index < limit) items

let pp ?(top = 10) formatter report =
  let line format = Format.fprintf formatter format in
  (match report.label with
   | Some label -> line "=== blame report: %s ===@," label
   | None -> line "=== blame report ===@,");
  line "blocked %g across %d wait(s); blamed %g@," report.total_blocked
    report.wait_count report.total_blamed;
  if report.blockers <> [] then begin
    line "@,top blockers (top %d of %d):@,"
      (min top (List.length report.blockers))
      (List.length report.blockers);
    line "  %-8s %12s %8s@," "BLOCKER" "BLAME" "WAITS";
    List.iter
      (fun stat ->
        line "  %-8s %12g %8d@," (agent_label stat.k_agent) stat.k_blame
          stat.k_waits)
      (truncated top report.blockers)
  end

let pp_share formatter share =
  Format.fprintf formatter "%s%s: %g" (agent_label share.sh_agent)
    (match share.sh_mode with
     | Some mode -> Printf.sprintf " (%s)" mode
     | None -> "")
    share.sh_blame

(* The per-transaction span tree: begin, each wait with its per-holder
   blame, the final commit/abort — [colock explain]'s payload. *)
let explain formatter report ~txn =
  let line format = Format.fprintf formatter format in
  match List.find_opt (fun entry -> entry.x_txn = txn) report.txns with
  | None -> line "T%d: no events in this run@," txn
  | Some entry ->
    line "T%d: %s, %s@," txn
      (match entry.x_begin with
       | Some time -> Printf.sprintf "begin %g" time
       | None -> "begin unseen")
      (match entry.x_end with
       | Some (cause, time) -> Printf.sprintf "%s %g" cause time
       | None -> "still running at stream end");
    line "blocked %g across %d wait(s); blamed for %g elsewhere@,"
      entry.x_blocked
      (List.length entry.x_waits)
      entry.x_caused;
    List.iter
      (fun wait ->
        line "|- wait %s (%s) [%g..%g] %s: %g@," wait.w_resource wait.w_mode
          wait.w_start wait.w_finish
          (outcome_label wait.w_outcome)
          (duration wait);
        List.iter
          (fun share -> line "|    blocked by %a@," pp_share share)
          wait.w_shares)
      entry.x_waits

let print_explain channel report ~txn =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@."
    (fun fmt report -> explain fmt report ~txn)
    report

let print ?top channel report =
  let formatter = Format.formatter_of_out_channel channel in
  Format.fprintf formatter "@[<v>%a@]@." (fun fmt -> pp ?top fmt) report
