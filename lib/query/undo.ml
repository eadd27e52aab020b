type t = {
  logs : (Lockmgr.Lock_table.txn_id, Colock.Store.change list) Hashtbl.t;
      (* most recent first *)
}

let create () = { logs = Hashtbl.create 16 }

let logged undo txn =
  Option.value (Hashtbl.find_opt undo.logs txn) ~default:[]

let attach undo executor =
  Executor.set_write_hook executor (fun txn change ->
      Hashtbl.replace undo.logs txn (change :: logged undo txn))

let pending undo ~txn = List.length (logged undo txn)
let forget undo ~txn = Hashtbl.remove undo.logs txn

let rollback undo ~txn executor =
  let rec undo_all count = function
    | [] ->
      Hashtbl.remove undo.logs txn;
      Ok count
    | change :: rest -> (
      match Executor.revert executor change with
      | Ok () ->
        Hashtbl.replace undo.logs txn rest;
        undo_all (count + 1) rest
      | Error _ as error -> error)
  in
  undo_all 0 (logged undo txn)
