(* What the experiments share besides table printing: the JSON report each
   leaves behind, the wall-clock timer, and the table of identities an
   exactness check prints. *)

let write_json path json =
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      Obs.Json.output channel json;
      output_char channel '\n');
  Printf.printf "wrote %s\n" path

(* [f ()]'s wall-clock milliseconds and result. *)
let time f =
  let started = Unix.gettimeofday () in
  let result = f () in
  ((Unix.gettimeofday () -. started) *. 1000.0, result)

(* One warm-up, then the median of seven runs; each run returns its own
   milliseconds (see [time]), and the first timed run's result rides
   along. *)
let median_of_7 run =
  let (_ : float * _) = run () in
  let samples = List.init 7 (fun _rep -> run ()) in
  ( List.nth (List.sort Float.compare (List.map fst samples)) 3,
    snd (List.hd samples) )

let print_identities ~title checks =
  Tables.print ~title ~header:[ "identity"; "holds" ]
    (List.map
       (fun (name, holds) ->
         [ Tables.Text name; Tables.Text (if holds then "yes" else "NO") ])
       checks)

let identities_json checks =
  Obs.Json.Obj
    (List.map (fun (name, holds) -> (name, Obs.Json.Bool holds)) checks)
