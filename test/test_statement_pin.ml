(* Pins the statement path through [Session]: a seeded mix of statements on
   a small manufacturing catalog with three secondary indexes. The mix holds
   the reads and updates of the disjoint benchmark (a cell's c_objects by
   cell_id, one robot's trajectory), reads through an index on a path inside
   a collection, updates that move an indexed path (trajectories, tools) and
   updates that do not (object names), inserts and deletes of cells,
   mistyped updates, statements that fail to parse or analyse, and aborts
   with their rollbacks. Three clients run round-robin, so statements also
   block; a client aborts a blocked transaction.

   Four digests pin the rows and errors of every statement, the final
   database, every index lookup, and the lock table's counters; a change to
   the parser, the executor, the store or the indexes that moves any of it
   fails here. The digests are never edited, with one recorded exception:
   the statements digest was re-recorded once when a delete of an absent
   key began to report the key, not an unknown relation (8 lines). *)

module Value = Nf2.Value
module Oid = Nf2.Oid
module Path = Nf2.Path
module Figure1 = Workload.Figure1

let cells = 6
let robots = 3
let effectors = 6

let catalog () =
  let db =
    Workload.Generator.manufacturing
      { Workload.Generator.cells; objects_per_cell = 3;
        robots_per_cell = robots; effectors; effectors_per_robot = 2;
        seed = 11 }
  in
  List.iter
    (fun (relation, path) ->
      match Nf2.Database.create_index db ~relation (Path.of_string path) with
      | Ok () -> ()
      | Error error ->
        Alcotest.failf "index %s.%s: %a" relation path Nf2.Database.pp_error
          error)
    [ ("cells", "cell_id"); ("cells", "robots.trajectory");
      ("effectors", "tool") ];
  db

let indexed =
  [ ("cells", "cell_id"); ("cells", "robots.trajectory");
    ("effectors", "tool") ]

(* ------------------------------------------------------------- statements *)

let set_field name replacement = function
  | Value.Tuple fields ->
    Value.Tuple
      (List.map
         (fun (field, sub) ->
           if String.equal field name then (field, replacement) else (field, sub))
         fields)
  | other -> other

type statement =
  | Read of string
  | Update of string * (Value.t -> Value.t)
  | Insert of string * Value.t
  | Delete of Oid.t

let cell state = 1 + Random.State.int state (cells + 2)
let robot state = 1 + Random.State.int state robots

let statement state ~txn ~step =
  let tag = Printf.sprintf "t%d.%d" txn step in
  match Random.State.int state 20 with
  | 0 | 1 | 2 | 3 ->
    Read
      (Printf.sprintf
         "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c%d' \
          FOR READ"
         (cell state))
  | 4 | 5 | 6 | 7 ->
    Update
      ( Printf.sprintf
          "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' AND \
           r.robot_id = 'r%d' FOR UPDATE"
          (cell state) (robot state),
        set_field "trajectory" (Value.Str tag) )
  | 8 ->
    Read
      (Printf.sprintf
         "SELECT c FROM c IN cells WHERE c.robots.trajectory = 'tr%d' FOR READ"
         (robot state))
  | 9 ->
    Read
      (Printf.sprintf
         "select e from e in effectors where e.tool = 't%d' for read"
         (1 + Random.State.int state effectors))
  | 10 ->
    Update
      ( Printf.sprintf
          "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c%d' \
           AND o.obj_id = %d FOR UPDATE"
          (cell state)
          (1 + Random.State.int state 3),
        set_field "obj_name" (Value.Str tag) )
  | 11 ->
    (* every robot of a cell: successive replaces of one object *)
    Update
      ( Printf.sprintf
          "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' FOR \
           UPDATE"
          (cell state),
        set_field "trajectory" (Value.Str tag) )
  | 12 ->
    Update
      ( Printf.sprintf
          "SELECT e FROM e IN effectors WHERE e.eff_id = 'e%d' FOR UPDATE"
          (1 + Random.State.int state effectors),
        set_field "tool" (Value.Str tag) )
  | 13 ->
    (* a whole cell rewritten to itself, and a mistyped one *)
    let mistyped = Random.State.bool state in
    Update
      ( Printf.sprintf "SELECT c FROM c IN cells WHERE c.cell_id = 'c%d' FOR UPDATE"
          (cell state),
        if mistyped then set_field "c_objects" (Value.Str tag) else Fun.id )
  | 14 ->
    Update
      ( Printf.sprintf
          "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' AND \
           r.robot_id = 'r%d' FOR UPDATE"
          (cell state) (robot state),
        set_field "trajectory" (Value.Int txn) )
  | 15 | 16 ->
    let key = Printf.sprintf "c%d" (cell state) in
    Insert
      ( "cells",
        Figure1.cell ~key
          ~objects:[ Figure1.cell_object ~id:1 ~name:tag ]
          ~robots:
            [ Figure1.robot ~key:"r1" ~trajectory:tag
                ~effectors:
                  [ Printf.sprintf "e%d" (1 + Random.State.int state effectors) ]
            ] )
  | 17 -> Delete (Oid.make ~relation:"cells" ~key:(Printf.sprintf "c%d" (cell state)))
  | 18 -> Delete (Oid.make ~relation:"effectors" ~key:"e1")
  | _ ->
    Read
      (List.nth
         [ "SELECT c FROM c IN nowhere FOR READ"; "SELECT FROM cells";
           "SELECT c FROM c IN cells WHERE c.cell_id = 'c1 FOR READ";
           "SELECT c FROM c IN cells WHERE c.nothing = 1 FOR READ";
           "SELECT select FROM select IN cells FOR READ";
           "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR WRITE";
           "SELECT c FROM c IN cells FOR READ trailing";
           "SELECT c FROM c IN cells WHERE c.robots.trajectory = 2.5 FOR READ" ]
         (Random.State.int state 8))

(* ------------------------------------------------------------------ run *)

let render_row session (row : Query.Executor.row) =
  Format.asprintf "%a|%s|%a" Oid.pp row.oid
    (Colock.Instance_graph.resource (Session.graph session) row.node)
    Value.pp row.value

let run_mix () =
  let session = Session.create (catalog ()) in
  Session.set_library_read_only session ~relation:"effectors";
  let transcript = Buffer.create 65536 in
  let say format = Printf.bprintf transcript format in
  let error_text error = Format.asprintf "%a" Query.Executor.pp_error error in
  let state = Random.State.make [| 2026; 28 |] in
  let clients = 3 and txns = 240 in
  (* per client: its transaction, statements left, and its number *)
  let current = Array.make clients None in
  let next = ref 0 in
  let start client =
    if !next < txns then begin
      let txn = Session.begin_txn session in
      current.(client) <- Some (txn, 1 + Random.State.int state 3, !next, 0);
      incr next
    end
    else current.(client) <- None
  in
  for client = 0 to clients - 1 do
    start client
  done;
  let abort client txn number =
    match Session.abort session txn with
    | Ok undone -> say "T%d abort undone=%d\n" number undone;
      start client
    | Error error -> say "T%d abort error %s\n" number (error_text error);
      start client
  in
  while Array.exists Option.is_some current do
    for client = 0 to clients - 1 do
      match current.(client) with
      | None -> ()
      | Some (txn, left, number, step) -> (
        let outcome =
          match statement state ~txn:number ~step with
          | Read text -> (
            say "T%d read %s\n" number text;
            match Session.query session txn text with
            | Ok rows ->
              List.iter (fun row -> say "  row %s\n" (render_row session row)) rows;
              Ok ()
            | Error error -> Error error)
          | Update (text, transform) -> (
            say "T%d update %s\n" number text;
            match Session.update session txn text transform with
            | Ok count -> say "  updated %d\n" count; Ok ()
            | Error error -> Error error)
          | Insert (relation, value) -> (
            say "T%d insert %s %s\n" number relation
              (Format.asprintf "%a" Value.pp value);
            match Session.insert session txn relation value with
            | Ok oid -> say "  inserted %s\n" (Oid.to_string oid); Ok ()
            | Error error -> Error error)
          | Delete oid -> (
            say "T%d delete %s\n" number (Oid.to_string oid);
            match Session.delete session txn oid with
            | Ok () -> say "  deleted\n"; Ok ()
            | Error error -> Error error)
        in
        match outcome with
        | Error error ->
          say "  error %s\n" (error_text error);
          abort client txn number
        | Ok () ->
          if left > 1 then current.(client) <- Some (txn, left - 1, number, step + 1)
          else if Random.State.int state 6 = 0 then abort client txn number
          else begin
            Session.commit session txn;
            say "T%d commit\n" number;
            start client
          end)
    done
  done;
  (session, Buffer.contents transcript)

(* ---------------------------------------------------------------- dumps *)

let database_dump db =
  let buffer = Buffer.create 8192 in
  List.iter
    (fun store ->
      List.iter
        (fun (key, value) ->
          Printf.bprintf buffer "%s/%s %s\n" (Nf2.Relation.name store) key
            (Format.asprintf "%a" Value.pp value))
        (Nf2.Relation.objects store))
    (Nf2.Database.relations db);
  Buffer.contents buffer

(* Every rendering the final database holds at each indexed path, a few it
   does not, and a probe of another atomic type. *)
let index_dump db =
  let buffer = Buffer.create 8192 in
  List.iter
    (fun (relation, text) ->
      let path = Path.of_string text in
      let store = Option.get (Nf2.Database.relation db relation) in
      let present =
        Nf2.Relation.fold
          (fun _key value accu ->
            List.filter_map Value.render_atomic (Value.project value path) @ accu)
          store []
      in
      let probes =
        List.sort_uniq String.compare
          (present @ [ "c0"; "tr0"; "t0"; "zz"; "" ])
      in
      let answer probe =
        match Nf2.Database.index_lookup db ~relation ~path probe with
        | Some keys -> String.concat "," keys
        | None -> "no index"
      in
      List.iter
        (fun probe ->
          Printf.bprintf buffer "%s.%s %S -> %s\n" relation text probe
            (answer (Value.Str probe)))
        probes;
      Printf.bprintf buffer "%s.%s int 1 -> %s\n" relation text
        (answer (Value.Int 1)))
    indexed;
  Printf.bprintf buffer "paths %s\n"
    (String.concat ";"
       (List.concat_map
          (fun relation ->
            List.map Path.to_string (Nf2.Database.indexed_paths db ~relation))
          [ "cells"; "effectors" ]));
  Buffer.contents buffer

let stats_dump session =
  String.concat "\n"
    (List.map
       (fun (name, value) -> Printf.sprintf "%s=%g" name value)
       (Lockmgr.Lock_stats.row
          (Lockmgr.Lock_table.stats (Session.lock_table session))))

let pinned =
  [ ("statements", "07cdc59341c5d8f3c7782f76207d134c");
    ("database", "405c6028b289408522b7047d4140f36c");
    ("indexes", "c042ee91873629e49b6e9e4370d9ce3f");
    ("lock stats", "10be5d076c3f5c71ef25004e408cf7b8") ]

let test_pin () =
  let session, transcript = run_mix () in
  let db = Session.database session in
  let digest text = Digest.to_hex (Digest.string text) in
  List.iter
    (fun (part, text) ->
      Alcotest.(check string) part (List.assoc part pinned) (digest text))
    [ ("statements", transcript);
      ("database", database_dump db);
      ("indexes", index_dump db);
      ("lock stats", stats_dump session) ]

let () =
  Alcotest.run "statement_pin"
    [ ("digests", [ Alcotest.test_case "seeded session mix" `Quick test_pin ]) ]
