module M = Map.Make (String)
module Value = Bca_util.Value

type t = int M.t

let empty = M.empty

let is_empty = M.is_empty

let round_cap = 12

(* 0,1,2,3 stay themselves; past that one bucket per power of two, like
   AFL's hit-count classes.  Monotone, so [novel] can compare buckets. *)
let bucket c =
  if c <= 0 then 0
  else if c <= 3 then c
  else begin
    let b = ref 4 and lim = ref 8 in
    while c >= !lim && !b < 32 do
      incr b;
      lim := !lim * 2
    done;
    !b
  end

let add_count t key k =
  if k <= 0 then t
  else
    M.update key (function None -> Some k | Some c -> Some (c + k)) t

let add t key = add_count t key 1

let count t key = match M.find_opt key t with Some c -> c | None -> 0

let round_label r = if r >= round_cap then string_of_int round_cap ^ "+" else string_of_int r

let value_label = function Value.V0 -> "0" | Value.V1 -> "1"

let add_event t (ev : Event.t) =
  match ev with
  | Event.Round_enter { round; _ } -> add t ("round:r" ^ round_label round)
  | Event.Quorum { round; phase; _ } ->
    add t ("quorum:" ^ phase ^ ":r" ^ round_label round)
  | Event.Coin_reveal { round; value; _ } ->
    add t ("coin:r" ^ round_label round ^ ":" ^ value_label value)
  | Event.Commit { round; value; _ } ->
    add t ("commit:r" ^ round_label round ^ ":" ^ value_label value)
  | Event.Violation { kind; _ } -> add t ("violation:" ^ kind)
  | Event.Drop _ -> add t "net:drop"
  | Event.Duplicate _ -> add t "net:dup"
  | Event.Redirect _ -> add t "net:redirect"
  | Event.Swap _ -> add t "net:swap"
  | Event.Crash _ -> add t "net:crash"
  | Event.Slot_commit { slot; _ } -> add t ("slot-commit:e" ^ string_of_int slot)
  | Event.Buffer_drop _ -> add t "rsm:buffer-drop"
  | Event.Send _ | Event.Deliver _ | Event.Transport _ -> t

let of_events evs =
  Array.fold_left (fun acc (te : Event.timed) -> add_event acc te.ev) empty evs

let merge a b = M.union (fun _ x y -> Some (max x y)) a b

let novel ~base t =
  M.fold (fun key c acc -> if bucket c > bucket (count base key) then acc + 1 else acc) t 0

let cardinality t = M.cardinal t

let points t = M.fold (fun _ c acc -> acc + bucket c) t 0

let to_list t = M.bindings t

let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  let first = ref true in
  M.iter
    (fun key c ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_char buf '"';
      Bca_util.Json.escape buf key;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (string_of_int c))
    t;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>coverage: %d keys, %d points" (cardinality t) (points t);
  M.iter (fun key c -> Format.fprintf ppf "@,  %-28s %d" key c) t;
  Format.fprintf ppf "@]"
