(* A binary min-heap on (time, sequence). Sequences are unique, so the order
   is total and the pops are those of a sorted map on the same keys. *)

type 'event slot =
  | Vacant
  | Event of { time : int; sequence : int; event : 'event }

type 'event t = {
  mutable heap : 'event slot array;  (* [0, count) heap-ordered, rest vacant *)
  mutable count : int;
  mutable sequence : int;
}

let create () = { heap = Array.make 64 Vacant; count = 0; sequence = 0 }

let earlier a b =
  match a, b with
  | Event a, Event b ->
    a.time < b.time || (a.time = b.time && a.sequence < b.sequence)
  | Vacant, _ | _, Vacant -> invalid_arg "Event_queue: vacant slot in the heap"

let schedule queue ~time event =
  queue.sequence <- queue.sequence + 1;
  if queue.count = Array.length queue.heap then begin
    let grown = Array.make (2 * queue.count) Vacant in
    Array.blit queue.heap 0 grown 0 queue.count;
    queue.heap <- grown
  end;
  let slot = Event { time; sequence = queue.sequence; event } in
  let heap = queue.heap in
  (* sift up: move parents down until the slot's place is found *)
  let rec place index =
    if index = 0 then heap.(0) <- slot
    else
      let parent = (index - 1) / 2 in
      if earlier slot heap.(parent) then begin
        heap.(index) <- heap.(parent);
        place parent
      end
      else heap.(index) <- slot
  in
  place queue.count;
  queue.count <- queue.count + 1

let pop queue =
  if queue.count = 0 then None
  else
    match queue.heap.(0) with
    | Vacant -> invalid_arg "Event_queue: vacant root"
    | Event { time; event; _ } ->
      let heap = queue.heap in
      let last = queue.count - 1 in
      let moved = heap.(last) in
      heap.(last) <- Vacant;
      queue.count <- last;
      (* sift the last slot down from the root, moving earlier children up;
         the popped slot is overwritten, so the heap keeps no finished
         event reachable *)
      let rec place index =
        let left = (2 * index) + 1 in
        if left >= last then heap.(index) <- moved
        else
          let right = left + 1 in
          let child =
            if right < last && earlier heap.(right) heap.(left) then right
            else left
          in
          if earlier heap.(child) moved then begin
            heap.(index) <- heap.(child);
            place child
          end
          else heap.(index) <- moved
      in
      if last > 0 then place 0;
      Some (time, event)

let is_empty queue = queue.count = 0
let size queue = queue.count
