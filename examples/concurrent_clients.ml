(* Real concurrent clients: OCaml 5 domains blocking on the protocol.

   Four designer clients run in parallel against one database server:
   two keep re-planning the robots of cell c1 (X), two keep reading its
   c_objects (S). The X locks serialize the writers against each other but
   never against the readers (different sub-objects of the same cell) —
   sub-object granules at work under genuine parallelism. A fifth client
   forces deadlocks by locking the two robots in the opposite order.

   Run with: dune exec examples/concurrent_clients.exe *)

module Mode = Lockmgr.Lock_mode
module Node_id = Colock.Node_id

let () =
  let db = Workload.Figure1.database ~c_objects:5 () in
  let graph = Colock.Instance_graph.build db in
  let table = Lockmgr.Lock_table.create () in
  let protocol = Colock.Protocol.create graph table in
  let blocking = Txn.Blocking.create protocol in

  let node steps = Colock.Instance_graph.node_exn graph (Option.get (Node_id.of_steps steps)) in
  let r1 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r1" ] in
  let r2 = node [ "db1"; "seg1"; "cells"; "c1"; "robots"; "r2" ] in
  let c_objects = node [ "db1"; "seg1"; "cells"; "c1"; "c_objects" ] in

  let writes = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let rounds = 200 in

  let writer ~base ~first ~second () =
    for i = 0 to rounds - 1 do
      Txn.Blocking.run_txn blocking ~txn:(base + i)
        ~locks:[ (first, Mode.X); (second, Mode.X) ]
        (fun () -> Atomic.incr writes)
    done
  in
  let reader ~base () =
    for i = 0 to rounds - 1 do
      Txn.Blocking.run_txn blocking ~txn:(base + i)
        ~locks:[ (c_objects, Mode.S) ]
        (fun () -> Atomic.incr reads)
    done
  in

  Printf.printf "spawning 5 client domains (%d transactions each)...\n%!"
    rounds;
  let clock_start = Unix.gettimeofday () in
  let domains =
    [ Domain.spawn (writer ~base:10_000 ~first:r1 ~second:r2);
      Domain.spawn (writer ~base:20_000 ~first:r1 ~second:r2);
      (* opposite order: guaranteed deadlock pressure *)
      Domain.spawn (writer ~base:30_000 ~first:r2 ~second:r1);
      Domain.spawn (reader ~base:40_000);
      Domain.spawn (reader ~base:50_000) ]
  in
  List.iter Domain.join domains;
  let elapsed = Unix.gettimeofday () -. clock_start in

  Printf.printf "done in %.3fs\n" elapsed;
  Printf.printf "  robot re-plans committed: %d (expected %d)\n"
    (Atomic.get writes) (3 * rounds);
  Printf.printf "  c_objects reads:          %d (expected %d)\n"
    (Atomic.get reads) (2 * rounds);
  Printf.printf "  locks left in the table:  %d\n"
    (Lockmgr.Lock_table.entry_count table);
  print_endline
    "\nwriters serialized on the robots, readers untouched by them, and\n\
     every deadlock was detected and its victim transparently restarted."
