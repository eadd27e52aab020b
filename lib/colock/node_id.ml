type t = string list
(* Reversed steps: leaf first, database name last.  Keeps [child]/[parent]
   constant-time; [steps] reverses. *)

let database name = [ name ]
let child node step = step :: node

let parent = function
  | [] | [ _ ] -> None
  | _leaf :: ancestors -> Some ancestors

let steps node = List.rev node
let of_steps = function [] -> None | steps -> Some (List.rev steps)

let to_resource node = Obs.Resource.render (List.rev node)
let child_resource = Obs.Resource.child
let depth = List.length

let rec is_ancestor ~ancestor node =
  List.length ancestor <= List.length node
  &&
  match node with
  | [] -> false
  | _leaf :: rest ->
    List.equal String.equal ancestor node || is_ancestor ~ancestor rest

let equal = List.equal String.equal

(* Root-first lexicographic order without reversing: compare two ids of the
   same depth from their root end, stopping at a shared (physically equal)
   tail — siblings cost one string comparison. *)
let rec compare_same_depth a b =
  if a == b then 0
  else
    match a, b with
    | step_a :: rest_a, step_b :: rest_b ->
      let above = compare_same_depth rest_a rest_b in
      if above <> 0 then above else String.compare step_a step_b
    | [], _ | _, [] -> 0

let rec drop count node =
  if count = 0 then node
  else match node with [] -> [] | _leaf :: rest -> drop (count - 1) rest

let compare a b =
  let depth_a = List.length a and depth_b = List.length b in
  if depth_a = depth_b then compare_same_depth a b
  else if depth_a < depth_b then
    let prefix = compare_same_depth a (drop (depth_b - depth_a) b) in
    if prefix <> 0 then prefix else -1
  else
    let prefix = compare_same_depth (drop (depth_a - depth_b) a) b in
    if prefix <> 0 then prefix else 1

let hash = Hashtbl.hash
let pp formatter node = Format.pp_print_string formatter (to_resource node)
