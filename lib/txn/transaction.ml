type kind = Short | Long

type abort_reason =
  | Deadlock_victim
  | Timeout_victim
  | Contention_victim
  | User_abort

type wait = { resource : string; since : int; epoch : int }

type status =
  | Active
  | Waiting of wait
  | Committed
  | Aborted of abort_reason

type t = {
  id : Lockmgr.Lock_table.txn_id;
  kind : kind;
  started_at : int;
  mutable status : status;
  mutable restarts : int;
  mutable work : int;
}

let make ?(kind = Short) ~id ~birth () =
  { id; kind; started_at = birth; status = Active; restarts = 0; work = 0 }

let is_finished txn =
  match txn.status with
  | Committed | Aborted _ -> true
  | Active | Waiting _ -> false

let is_waiting txn =
  match txn.status with
  | Waiting _ -> true
  | Active | Committed | Aborted _ -> false
