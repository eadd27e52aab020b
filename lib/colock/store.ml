module Graph = Instance_graph
module Oid = Nf2.Oid

type t = { db : Nf2.Database.t; graph : Graph.t }

type change =
  | Inserted of { oid : Oid.t }
  | Replaced of { oid : Oid.t; before : Nf2.Value.t }
  | Deleted of { relation : string; before : Nf2.Value.t }

type error = Database of Nf2.Database.error | Graph of string

let create db graph = { db; graph }
let database store = store.db
let lift result = Result.map_error (fun db_error -> Database db_error) result

let stored store oid =
  match Nf2.Database.relation store.db (Oid.relation oid) with
  | None -> Error (Nf2.Database.Unknown_relation (Oid.relation oid))
  | Some relation ->
    Option.to_result (Nf2.Relation.find relation (Oid.key oid))
      ~none:(Nf2.Database.Relation_error (Unknown_key (Oid.key oid)))

(* With the relation known to both halves, the graph files whatever the
   database accepted. *)
let insert store relation value =
  let catalog = Nf2.Database.catalog store.db in
  match
    Nf2.Catalog.find catalog relation, Graph.relation_node store.graph relation
  with
  | None, _ | _, None -> Error (Database (Unknown_relation relation))
  | Some schema, Some _ ->
    Result.bind (lift (Nf2.Database.insert store.db relation value))
      (fun oid ->
        match
          Graph.insert_object store.graph catalog schema ~key:(Oid.key oid)
            value
        with
        | Ok _node -> Ok (Inserted { oid })
        | Error message -> Error (Graph message))

let replace store oid value =
  Result.map
    (fun before -> Replaced { oid; before })
    (Nf2.Database.replace store.db oid value)

(* Stored, and let go of by the graph: the database delete succeeds. *)
let delete store oid =
  Result.bind (lift (stored store oid)) (fun before ->
      match Graph.delete_object store.graph oid with
      | Error message -> Error (Graph message)
      | Ok () ->
        lift
          (Result.map
             (fun () -> Deleted { relation = Oid.relation oid; before })
             (Nf2.Database.delete store.db oid)))

let revert store = function
  | Inserted { oid } -> Result.map ignore (delete store oid)
  | Replaced { oid; before } ->
    lift (Result.map ignore (replace store oid before))
  | Deleted { relation; before } ->
    Result.map ignore (insert store relation before)
