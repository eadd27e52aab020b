(* Benchmark entry point:
   main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

let workloads = [ "disjoint"; "shared"; "audit" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " disjoint | shared | audit");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " run length the work is sized for");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer") ]
    (fun argument -> raise (Arg.Bad ("unexpected argument " ^ argument)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let report = Report.create () in
  let probe_before = Measure.host_probe_ms ~iterations:4_000_000 in
  let wall = Measure.now_ns () and cpu = Measure.cpu_seconds () in
  (if !trace = 0 then
     match !workload with
     | "disjoint" -> Disjoint.measure report ~seed:!seed ~seconds:!seconds
     | "shared" -> Shared.measure report ~seed:!seed ~seconds:!seconds
     | _ -> Audit.measure report ~seed:!seed ~seconds:!seconds
   else begin
     (* every traced run covers all three workloads, so each per-layer
        metric is measured wherever its layer does work *)
     Disjoint.trace report ~seed:!seed ~seconds:!seconds;
     Shared.trace report ~seed:!seed ~seconds:!seconds;
     Audit.trace report ~seed:!seed ~seconds:!seconds
   end);
  Report.note "wall %.3f s, process cpu %.3f s, host probe %.1f ms before / %.1f ms after"
    (Measure.seconds_since wall) (Measure.cpu_seconds () -. cpu) probe_before
    (Measure.host_probe_ms ~iterations:4_000_000);
  Report.print report;
  if report.Report.failures <> [] then exit 1
