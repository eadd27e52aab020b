(** Hash tables on int keys, hashed as themselves: the lock table's
    transactions and the protocol's dense node ids share this one
    instance. *)

include Hashtbl.S with type key = int
