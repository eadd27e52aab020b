(** Hash tables on int keys, hashed as themselves: the lock table's
    transactions, the protocol's dense node ids and the certifier's
    transactions and interned resources share this one instance. *)

include Hashtbl.S with type key = int
