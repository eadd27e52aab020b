type txn_id = int

type t = {
  default_modifiable : bool;
  relation_defaults : (string, bool) Hashtbl.t;
  per_txn : (txn_id * string, bool) Hashtbl.t;
}

let create ?(default_modifiable = true) () =
  { default_modifiable; relation_defaults = Hashtbl.create 16;
    per_txn = Hashtbl.create 64 }

let grant_modify rights ~txn ~relation =
  Hashtbl.replace rights.per_txn (txn, relation) true

let revoke_modify rights ~txn ~relation =
  Hashtbl.replace rights.per_txn (txn, relation) false

let set_relation_default rights ~relation modifiable =
  Hashtbl.replace rights.relation_defaults relation modifiable

let may_modify rights ~txn ~relation =
  match Hashtbl.find_opt rights.per_txn (txn, relation) with
  | Some decision -> decision
  | None -> (
    match Hashtbl.find_opt rights.relation_defaults relation with
    | Some decision -> decision
    | None -> rights.default_modifiable)

let forget_txn rights ~txn =
  let stale =
    Hashtbl.fold
      (fun ((owner, _relation) as key) _decision accu ->
        if owner = txn then key :: accu else accu)
      rights.per_txn []
  in
  List.iter (Hashtbl.remove rights.per_txn) stale
