module Table = Lockmgr.Lock_table

module Int_set = Set.Make (Int)

type t = {
  protocol : Protocol.t;
  mutex : Mutex.t;
  changed : Condition.t;
  mutable victims : Int_set.t;
      (* deadlock victims whose locks are gone but whose [acquire] has not
         yet returned [`Deadlock_victim] *)
}

let create protocol =
  { protocol; mutex = Mutex.create (); changed = Condition.create ();
    victims = Int_set.empty }

let protocol wrapper = wrapper.protocol

(* Call with the mutex held.  A transaction with a queued request is parked
   in [acquire] (or is the requester), so its locks can go at once; it
   learns its fate from [victims] when it runs again. *)
let abort_victim wrapper txn =
  let table = Protocol.table wrapper.protocol in
  let (_ : Table.grant list) =
    Protocol.end_of_transaction wrapper.protocol ~txn
  in
  let stats = Table.stats table in
  stats.Lockmgr.Lock_stats.victim_aborts <-
    stats.Lockmgr.Lock_stats.victim_aborts + 1;
  Protocol.emit wrapper.protocol
    (Obs.Event.Victim_aborted { txn; restarts = 0 });
  wrapper.victims <- Int_set.add txn wrapper.victims;
  Condition.broadcast wrapper.changed

let acquire wrapper ~txn ?duration ?follow_references node mode =
  Mutex.lock wrapper.mutex;
  let table = Protocol.table wrapper.protocol in
  let rec attempt () =
    if Int_set.mem txn wrapper.victims then begin
      wrapper.victims <- Int_set.remove txn wrapper.victims;
      `Deadlock_victim
    end
    else
      match
        Protocol.acquire wrapper.protocol ~txn ?duration ?follow_references
          node mode
      with
      | Protocol.Acquired _ -> `Granted
      | Protocol.Blocked _ ->
        let sacrificed =
          Lockmgr.Deadlock.resolve table ~obs:(Protocol.obs wrapper.protocol)
            ~victim:Lockmgr.Policy.Youngest
            ~candidate:(fun id ->
              { Lockmgr.Policy.txn = id; birth = id; locks_held = 0;
                work_done = 0 })
            ~abort:(abort_victim wrapper) ~requester:txn
        in
        (* Park only while the step is still queued: another victim's
           released locks may already have granted it. *)
        if (not sacrificed) && Table.waiting_of table ~txn <> [] then
          Condition.wait wrapper.changed wrapper.mutex;
        attempt ()
  in
  let outcome = attempt () in
  Mutex.unlock wrapper.mutex;
  outcome

let end_of_transaction wrapper ~txn =
  Mutex.lock wrapper.mutex;
  let (_ : Table.grant list) =
    Protocol.end_of_transaction wrapper.protocol ~txn
  in
  wrapper.victims <- Int_set.remove txn wrapper.victims;
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
