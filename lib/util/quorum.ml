(* Structural equality, with the common cases kept out of the polymorphic
   C comparison.  Protocol values are mostly constant constructors, which
   are immediates: two immediates are equal iff they are identical, and an
   immediate never equals a block.  Only two distinct blocks (a [Val v], a
   digest string) reach [=].  Identity implies equality for every value a
   quorum holds (no NaN floats). *)
let same a b =
  a == b || ((not (Obj.is_int (Obj.repr a))) && (not (Obj.is_int (Obj.repr b))) && a = b)

let rec mem_same v = function [] -> false | x :: rest -> same x v || mem_same v rest

type 'v tally = { value : 'v; mutable votes : int }

type 'v t = {
  (* [slots.(pid)]: the values credited to sender [pid], newest first; []
     for a sender not yet seen.  The array grows on demand to cover the
     highest pid seen, so it ends up about the size of the party count. *)
  mutable slots : 'v list array;
  (* senders outside [0, max_dense) - out-of-band injected sources, spoofed
     wire ids - in ascending pid order.  Empty in every honest run. *)
  mutable oob : (int * 'v list) list;
  mutable nsenders : int;
  (* per-value sender tallies, maintained incrementally on every credited
     message so the threshold tests protocols run after each delivery are
     O(#distinct values) instead of a fold over all senders.  Protocol values
     are tiny variants (two or three distinct possibilities), so a list
     beats any hashed structure here.  Newest distinct value first. *)
  mutable tallies : 'v tally list;
}

(* The largest slot array a sender id can make a quorum allocate: one
   minor-heap block (the runtime's [Max_young_wosize]). *)
let max_dense = 256

let create () = { slots = [||]; oob = []; nsenders = 0; tallies = [] }

let copy t =
  { slots = Array.copy t.slots;
    oob = t.oob;
    nsenders = t.nsenders;
    tallies = List.map (fun r -> { r with votes = r.votes }) t.tallies }

let rec bump t v = function
  | [] -> t.tallies <- { value = v; votes = 1 } :: t.tallies
  | r :: rest -> if same r.value v then r.votes <- r.votes + 1 else bump t v rest

let dense pid = pid >= 0 && pid < max_dense

let sender_values t pid =
  if dense pid then if pid < Array.length t.slots then t.slots.(pid) else []
  else
    match List.find_opt (fun (p, _) -> Int.equal p pid) t.oob with Some (_, vs) -> vs | None -> []

let rec oob_set pid vs = function
  | [] -> [ (pid, vs) ]
  | ((p, _) as b) :: rest ->
    if Int.equal p pid then (pid, vs) :: rest
    else if p > pid then (pid, vs) :: b :: rest
    else b :: oob_set pid vs rest

(* Credit [v] to [pid], whose current values are [prev]. *)
let credit t ~pid prev v =
  (match prev with [] -> t.nsenders <- t.nsenders + 1 | _ :: _ -> ());
  let vs = v :: prev in
  (if dense pid then begin
     let len = Array.length t.slots in
     if pid >= len then begin
       let slots = Array.make (min max_dense (max (pid + 1) (max 8 (2 * len)))) [] in
       Array.blit t.slots 0 slots 0 len;
       t.slots <- slots
     end;
     t.slots.(pid) <- vs
   end
   else t.oob <- oob_set pid vs t.oob);
  bump t v t.tallies

let add_first t ~pid v =
  match sender_values t pid with
  | [] ->
    credit t ~pid [] v;
    true
  | _ -> false

let add_value t ~pid v =
  let prev = sender_values t pid in
  if mem_same v prev then false
  else begin
    credit t ~pid prev v;
    true
  end

let rec votes v = function [] -> 0 | r :: rest -> if same r.value v then r.votes else votes v rest

let count t v = votes v t.tallies

let senders t = t.nsenders

let values t = List.map (fun r -> r.value) t.tallies

let all_equal t = match t.tallies with [ r ] -> Some r.value | _ -> None

(* Every sender with its values, in ascending pid order. *)
let bindings t =
  let below, above = List.partition (fun (pid, _) -> pid < 0) t.oob in
  let acc = ref above in
  for pid = Array.length t.slots - 1 downto 0 do
    match t.slots.(pid) with [] -> () | vs -> acc := (pid, vs) :: !acc
  done;
  below @ !acc

let count_if t p =
  List.fold_left (fun acc (_, vs) -> if List.exists p vs then acc + 1 else acc) 0 (bindings t)

let senders_of t v =
  List.filter_map (fun (pid, vs) -> if mem_same v vs then Some pid else None) (bindings t)

let mem_sender t ~pid = match sender_values t pid with [] -> false | _ :: _ -> true

let entries t = List.concat_map (fun (pid, vs) -> List.map (fun v -> (pid, v)) vs) (bindings t)

(* Threshold arithmetic.  These three formulas are the paper's whole quorum
   vocabulary; spelling them once here (the only file the lint quorum rule
   exempts) keeps a mistyped [2 * t - 1] from hiding in a protocol body. *)

let plurality ~t = t + 1
let supermajority ~t = (2 * t) + 1
let available ~n ~t = n - t
