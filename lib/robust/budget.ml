type config = { ratio : float; burst : float }

let default_config = { ratio = 0.5; burst = 16.0 }

let config_of_string s =
  let parse_float label v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None ->
      Error (Printf.sprintf "retry budget %s: not a number: %S" label v)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ ratio ] ->
    let* ratio = parse_float "ratio" ratio in
    Ok { default_config with ratio }
  | [ ratio; burst ] ->
    let* ratio = parse_float "ratio" ratio in
    let* burst = parse_float "burst" burst in
    Ok { ratio; burst }
  | _ ->
    Error (Printf.sprintf "retry budget spec %S: expected RATIO[:BURST]" s)

let validate c =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if c.ratio < 0.0 then err "retry ratio must be >= 0 (got %g)" c.ratio;
  if c.burst < 1.0 then err "retry burst must be >= 1 (got %g)" c.burst;
  List.rev !errs

type t = { cfg : config; mutable tokens : float; mutable denied : int }

let create cfg = { cfg; tokens = cfg.burst; denied = 0 }
let tokens t = t.tokens
let denied_count t = t.denied
let on_commit t = t.tokens <- min t.cfg.burst (t.tokens +. t.cfg.ratio)

let try_retry t =
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else begin
    t.denied <- t.denied + 1;
    false
  end
