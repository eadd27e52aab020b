module Table = Lockmgr.Lock_table
module Mode = Lockmgr.Lock_mode
module Protocol = Colock.Protocol
module Graph = Colock.Instance_graph
module Store = Colock.Store
module Oid = Nf2.Oid

type checkout_record = { value : Nf2.Value.t; exclusive : bool }

type t = {
  manager : Txn_manager.t;
  central : Store.t;  (* the database and the manager's graph *)
  lock_file : string;
  store : (Table.txn_id * Oid.t, checkout_record) Hashtbl.t;
      (* private workstation databases, keyed by (txn, oid) *)
}

type error =
  | Unknown_object of Oid.t
  | Not_checked_out of Oid.t
  | Not_exclusive of Oid.t
  | Blocked of {
      node : Colock.Node_id.t;
      blockers : Table.txn_id list;
    }
  | Deadlock
  | Write_back of Nf2.Database.error

let pp_error formatter = function
  | Unknown_object oid ->
    Format.fprintf formatter "unknown object %a" Oid.pp oid
  | Not_checked_out oid ->
    Format.fprintf formatter "%a is not checked out" Oid.pp oid
  | Not_exclusive oid ->
    Format.fprintf formatter "%a was checked out for read only" Oid.pp oid
  | Blocked { node; blockers } ->
    Format.fprintf formatter "blocked on %a by %s" Colock.Node_id.pp node
      (String.concat "," (List.map string_of_int blockers))
  | Deadlock -> Format.pp_print_string formatter "deadlock victim"
  | Write_back db_error -> Nf2.Database.pp_error formatter db_error

let create ?(lock_file = "colock_long_locks.txt") manager db =
  let graph = Protocol.graph (Txn_manager.protocol manager) in
  { manager; central = Store.create db graph; lock_file;
    store = Hashtbl.create 32 }

let check_out checkout txn oid ~mode =
  let graph = Protocol.graph (Txn_manager.protocol checkout.manager) in
  match Graph.object_node graph oid with
  | None -> Error (Unknown_object oid)
  | Some node -> (
    let lock_mode = match mode with `Read -> Mode.S | `Update -> Mode.X in
    match
      Txn_manager.acquire checkout.manager txn ~duration:Table.Long node
        lock_mode
    with
    | Txn_manager.Deadlock_victim -> Error Deadlock
    | Txn_manager.Waiting { node; blockers } -> Error (Blocked { node; blockers })
    | Txn_manager.Granted -> (
      match Nf2.Database.deref (Store.database checkout.central) oid with
      | None -> Error (Unknown_object oid)
      | Some value ->
        Hashtbl.replace checkout.store (txn.Transaction.id, oid)
          { value; exclusive = (match mode with `Read -> false | `Update -> true) };
        Ok value))

let local_copy checkout txn oid =
  Option.map
    (fun record -> record.value)
    (Hashtbl.find_opt checkout.store (txn.Transaction.id, oid))

let update_local checkout txn oid value =
  match Hashtbl.find_opt checkout.store (txn.Transaction.id, oid) with
  | None -> Error (Not_checked_out oid)
  | Some record ->
    if not record.exclusive then Error (Not_exclusive oid)
    else begin
      Hashtbl.replace checkout.store (txn.Transaction.id, oid)
        { record with value };
      Ok ()
    end

let check_in checkout txn oid =
  match Hashtbl.find_opt checkout.store (txn.Transaction.id, oid) with
  | None -> Error (Not_checked_out oid)
  | Some record ->
    if not record.exclusive then Error (Not_exclusive oid)
    else
      match Store.replace checkout.central oid record.value with
      | Ok (_ : Store.change) -> Ok ()
      | Error db_error -> Error (Write_back db_error)

let checked_out checkout txn =
  Hashtbl.fold
    (fun (owner, oid) _record accu ->
      if owner = txn.Transaction.id then oid :: accu else accu)
    checkout.store []
  |> List.sort Oid.compare

let finish_session checkout txn =
  let grants = Txn_manager.commit ~release_long:true checkout.manager txn in
  Hashtbl.filter_map_inplace
    (fun (owner, _oid) record ->
      if owner = txn.Transaction.id then None else Some record)
    checkout.store;
  grants

(* ------------------------------------------------------------ Persistence *)

(* One lock per line: "<txn_id> <mode> <resource>".  Resources never contain
   spaces (node steps come from identifiers and keys; rendered oids use
   '/'). *)

(* Written to a temporary file and renamed on success, so a failure mid-save
   never truncates the previous (valid) lock file. *)
let save_locks checkout =
  let table = Protocol.table (Txn_manager.protocol checkout.manager) in
  let temp_file = checkout.lock_file ^ ".tmp" in
  let channel = open_out temp_file in
  (try
     List.iter
       (fun resource ->
         List.iter
           (fun (txn_id, mode) ->
             (* only long locks survive a shutdown *)
             let is_long =
               List.exists
                 (fun (held_resource, _mode, duration) ->
                   String.equal held_resource resource
                   && duration = Table.Long)
                 (Table.locks_of table ~txn:txn_id)
             in
             if is_long then
               Printf.fprintf channel "%d %s %s\n" txn_id
                 (Mode.to_string mode) resource)
           (Table.holders table ~resource))
       (Table.resources table);
     close_out channel
   with exn ->
     close_out_noerr channel;
     (try Sys.remove temp_file with Sys_error _ -> ());
     raise exn);
  Sys.rename temp_file checkout.lock_file

let restore_locks checkout =
  if not (Sys.file_exists checkout.lock_file) then 0
  else begin
    let table = Protocol.table (Txn_manager.protocol checkout.manager) in
    let channel = open_in checkout.lock_file in
    let restored = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in channel)
      (fun () ->
        let parse line =
          match String.index_opt line ' ' with
          | None -> None
          | Some first -> (
            let rest = String.sub line (first + 1) (String.length line - first - 1) in
            match String.index_opt rest ' ' with
            | None -> None
            | Some second -> (
              let txn_text = String.sub line 0 first in
              let mode_text = String.sub rest 0 second in
              let resource =
                String.sub rest (second + 1) (String.length rest - second - 1)
              in
              match int_of_string_opt txn_text, Mode.of_string mode_text with
              | Some txn_id, Some mode -> Some (txn_id, mode, resource)
              | (Some _ | None), (Some _ | None) -> None))
        in
        let entries = ref [] in
        (try
           while true do
             match parse (input_line channel) with
             | Some entry -> entries := entry :: !entries
             | None -> ()
           done
         with End_of_file -> ());
        (* parents (shorter resources, lexicographic prefix) first *)
        let ordered =
          List.sort
            (fun (_t1, _m1, r1) (_t2, _m2, r2) -> String.compare r1 r2)
            !entries
        in
        List.iter
          (fun (txn_id, mode, resource) ->
            match Table.request table ~txn:txn_id ~duration:Table.Long ~resource mode with
            | Table.Granted -> incr restored
            | Table.Waiting _ -> ())
          ordered);
    !restored
  end
