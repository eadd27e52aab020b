module Oid = Nf2.Oid
module Value = Nf2.Value
module Graph = Colock.Instance_graph

type record =
  | Replaced of { oid : Oid.t; before : Value.t }
  | Inserted of { oid : Oid.t }
  | Deleted of { relation : string; before : Value.t }

type t = {
  logs : (Lockmgr.Lock_table.txn_id, record list ref) Hashtbl.t;
      (* most recent first *)
}

let create () = { logs = Hashtbl.create 16 }

let attach undo executor =
  Executor.set_write_hook executor (fun txn write ->
      let record =
        match write with
        | Executor.Wrote_replace { oid; before } -> Replaced { oid; before }
        | Executor.Wrote_insert { oid } -> Inserted { oid }
        | Executor.Wrote_delete { relation; before } ->
          Deleted { relation; before }
      in
      match Hashtbl.find_opt undo.logs txn with
      | Some log -> log := record :: !log
      | None -> Hashtbl.replace undo.logs txn (ref [ record ]))

let note undo ~txn record =
  match Hashtbl.find_opt undo.logs txn with
  | Some log -> log := record :: !log
  | None -> Hashtbl.replace undo.logs txn (ref [ record ])

let pending undo ~txn =
  match Hashtbl.find_opt undo.logs txn with
  | Some log -> List.length !log
  | None -> 0

let forget undo ~txn = Hashtbl.remove undo.logs txn

let apply_record executor record =
  let db = Executor.database executor in
  let graph = Colock.Protocol.graph (Executor.protocol executor) in
  let catalog = Nf2.Database.catalog db in
  match record with
  | Replaced { oid; before } -> (
    (* value-level update: graph structure unchanged *)
    match Nf2.Database.replace db oid before with
    | Ok () -> Ok ()
    | Error db_error -> Error (Executor.Database_error db_error))
  | Inserted { oid } -> (
    match Graph.delete_object graph oid with
    | Error message -> Error (Executor.Graph_error message)
    | Ok () -> (
      match Nf2.Database.delete db oid with
      | Ok () -> Ok ()
      | Error db_error -> Error (Executor.Database_error db_error)))
  | Deleted { relation; before } -> (
    match Nf2.Database.insert db relation before with
    | Error db_error -> Error (Executor.Database_error db_error)
    | Ok oid -> (
      match Nf2.Catalog.find catalog relation with
      | None ->
        Error (Executor.Database_error (Nf2.Database.Unknown_relation relation))
      | Some schema -> (
        match
          Graph.insert_object graph catalog schema ~key:(Oid.key oid) before
        with
        | Ok _node -> Ok ()
        | Error message -> Error (Executor.Graph_error message))))

let rollback undo ~txn executor =
  match Hashtbl.find_opt undo.logs txn with
  | None -> Ok 0
  | Some log ->
    let rec undo_all count = function
      | [] ->
        Hashtbl.remove undo.logs txn;
        Ok count
      | record :: rest -> (
        match apply_record executor record with
        | Ok () ->
          log := rest;
          undo_all (count + 1) rest
        | Error _ as error -> error)
    in
    undo_all 0 !log
