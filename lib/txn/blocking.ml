type t = {
  engine : Txn_manager.t;
  mutex : Mutex.t;
  changed : Condition.t;
}

let create protocol =
  { engine = Txn_manager.create protocol; mutex = Mutex.create ();
    changed = Condition.create () }

let acquire wrapper ~txn ?duration node mode =
  Mutex.lock wrapper.mutex;
  let record =
    match Txn_manager.find wrapper.engine txn with
    | Some record -> record
    | None -> (
      match
        Txn_manager.enter wrapper.engine
          (Transaction.make ~id:txn ~birth:txn ())
      with
      | Txn_manager.Started record -> record
      | Txn_manager.Queued _ | Txn_manager.Shed ->
        invalid_arg "Blocking.acquire: no admission gate expected")
  in
  let rec attempt () =
    let outcome = Txn_manager.acquire wrapper.engine record ?duration node mode in
    (* victims this call made, parked elsewhere, learn their fate from the
       engine when they wake *)
    Condition.broadcast wrapper.changed;
    match outcome with
    | Txn_manager.Granted -> `Granted
    | Txn_manager.Deadlock_victim -> `Deadlock_victim
    | Txn_manager.Waiting _ ->
      while Transaction.is_waiting record do
        Condition.wait wrapper.changed wrapper.mutex
      done;
      attempt ()
  in
  let outcome = attempt () in
  Mutex.unlock wrapper.mutex;
  outcome

let end_of_transaction wrapper ~txn =
  Mutex.lock wrapper.mutex;
  (match Txn_manager.find wrapper.engine txn with
   | Some record ->
     ignore (Txn_manager.commit wrapper.engine record : Lockmgr.Lock_table.grant list)
   | None -> ());
  Condition.broadcast wrapper.changed;
  Mutex.unlock wrapper.mutex

let run_txn wrapper ~txn ~locks action =
  let rec attempt () =
    let rec acquire_all = function
      | [] -> `Granted
      | (node, mode) :: rest -> (
        match acquire wrapper ~txn node mode with
        | `Granted -> acquire_all rest
        | `Deadlock_victim -> `Deadlock_victim)
    in
    match acquire_all locks with
    | `Granted ->
      Fun.protect
        ~finally:(fun () -> end_of_transaction wrapper ~txn)
        action
    | `Deadlock_victim ->
      (* locks already gone; brief pause and retry *)
      Domain.cpu_relax ();
      attempt ()
  in
  attempt ()
