type t = {
  mutable requests : int;
  mutable immediate_grants : int;
  mutable waits : int;
  mutable conversions : int;
  mutable conflict_tests : int;
  mutable releases : int;
  mutable escalations : int;
  mutable deescalations : int;
  mutable deadlocks : int;
  mutable victim_aborts : int;
  mutable timeout_aborts : int;
}

let create () =
  { requests = 0; immediate_grants = 0; waits = 0; conversions = 0;
    conflict_tests = 0; releases = 0; escalations = 0; deescalations = 0;
    deadlocks = 0; victim_aborts = 0; timeout_aborts = 0 }

let row stats =
  [ ("requests", float_of_int stats.requests);
    ("immediate_grants", float_of_int stats.immediate_grants);
    ("waits", float_of_int stats.waits);
    ("conversions", float_of_int stats.conversions);
    ("conflict_tests", float_of_int stats.conflict_tests);
    ("releases", float_of_int stats.releases);
    ("escalations", float_of_int stats.escalations);
    ("deescalations", float_of_int stats.deescalations);
    ("deadlocks", float_of_int stats.deadlocks);
    ("victim_aborts", float_of_int stats.victim_aborts);
    ("timeout_aborts", float_of_int stats.timeout_aborts) ]
