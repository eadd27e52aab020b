(** A deterministic discrete-event queue: events fire in (time, insertion)
    order.

    A binary min-heap on (time, sequence), where the sequence counts
    schedules. Sequences are unique, so the order is total: the pops are
    those of a sorted map on the same keys, ties in time broken first in,
    first out. {!schedule} and {!pop} cost O(log n) comparisons of two ints
    each and allocate one slot per event; a popped event is no longer
    reachable from the queue. *)

type 'event t

val create : unit -> 'event t
val schedule : 'event t -> time:int -> 'event -> unit
val pop : 'event t -> (int * 'event) option
(** Earliest event, FIFO among equal times; [None] when empty. *)

val is_empty : 'event t -> bool
val size : 'event t -> int
