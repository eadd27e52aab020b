type fate =
  | Normal
  | Crash_at of int
  | Stall of int
  | Hog

type spec = {
  crash : float;
  stall : float;
  stall_factor : int;
  hog : float;
  fault_seed : int;
}

let none = { crash = 0.0; stall = 0.0; stall_factor = 8; hog = 0.0;
             fault_seed = 0 }

let active spec = spec.crash > 0.0 || spec.stall > 0.0 || spec.hog > 0.0

let fate spec ~txn ~steps =
  if not (active spec) then Normal
  else begin
    (* Seeded per transaction: a job's fate is a pure function of
       (fault_seed, txn), independent of how many other jobs drew before
       it — runs stay deterministic and individual fates reproducible. *)
    let rng = Random.State.make [| spec.fault_seed; txn |] in
    let draw = Random.State.float rng 1.0 in
    if draw < spec.crash then
      Crash_at (if steps <= 0 then 0 else Random.State.int rng steps)
    else if draw < spec.crash +. spec.hog then Hog
    else if draw < spec.crash +. spec.hog +. spec.stall then
      Stall spec.stall_factor
    else Normal
  end

let parse_error message = Error (`Msg ("faults: " ^ message))

let of_string text =
  let parse_rate what value =
    match float_of_string_opt value with
    | Some rate when rate >= 0.0 && rate <= 1.0 -> Ok rate
    | Some _ | None -> parse_error (what ^ " rate must be in [0,1]: " ^ value)
  in
  let parse_clause spec clause =
    match String.index_opt clause ':' with
    | None -> parse_error ("expected KIND:RATE, got " ^ clause)
    | Some colon -> (
      let kind = String.sub clause 0 colon in
      let value =
        String.sub clause (colon + 1) (String.length clause - colon - 1)
      in
      match kind with
      | "crash" -> (
        match parse_rate "crash" value with
        | Ok crash -> Ok { spec with crash }
        | Error _ as error -> error)
      | "hog" -> (
        match parse_rate "hog" value with
        | Ok hog -> Ok { spec with hog }
        | Error _ as error -> error)
      | "stall" -> (
        (* "stall:0.2" or "stall:0.2x4" (slow-down factor, default 8) *)
        let rate, factor =
          match String.index_opt value 'x' with
          | None -> (value, Ok spec.stall_factor)
          | Some x ->
            let rate = String.sub value 0 x in
            let factor_text =
              String.sub value (x + 1) (String.length value - x - 1)
            in
            (match int_of_string_opt factor_text with
             | Some factor when factor >= 1 -> (rate, Ok factor)
             | Some _ | None ->
               (rate, parse_error ("stall factor must be >= 1: " ^ factor_text)))
        in
        match factor, parse_rate "stall" rate with
        | Ok stall_factor, Ok stall -> Ok { spec with stall; stall_factor }
        | (Error _ as error), _ | _, (Error _ as error) -> error)
      | _ -> parse_error ("unknown fault kind: " ^ kind))
  in
  let clauses =
    String.split_on_char ',' (String.trim text)
    |> List.map String.trim
    |> List.filter (fun clause -> clause <> "")
  in
  let spec =
    List.fold_left
      (fun spec clause ->
        match spec with
        | Error _ -> spec
        | Ok spec -> parse_clause spec clause)
      (Ok none) clauses
  in
  match spec with
  | Ok spec when spec.crash +. spec.stall +. spec.hog > 1.0 ->
    parse_error "rates sum to more than 1"
  | other -> other

let to_string spec =
  let clauses =
    (if spec.crash > 0.0 then [ Printf.sprintf "crash:%g" spec.crash ] else [])
    @ (if spec.stall > 0.0 then
         [ Printf.sprintf "stall:%gx%d" spec.stall spec.stall_factor ]
       else [])
    @ if spec.hog > 0.0 then [ Printf.sprintf "hog:%g" spec.hog ] else []
  in
  if clauses = [] then "none" else String.concat "," clauses
