module Value = Bca_util.Value
module Coin = Bca_coin.Coin
module Types = Bca_core.Types
module Bracha = Bca_baselines.Bracha
module Aba_slot = Bca_core.Aba.Byz_strong_stack

type payload = string

(* FNV-1a, 64-bit: the value digest the selection rule agrees over.  Pure
   and dependency-free; collision resistance is not load-bearing - the
   common subset fixes the payloads themselves, digests only give the
   selection rule a compact, deterministic sort key. *)
let digest (s : payload) : int64 =
  (* an index loop keeps [h] unboxed: no Int64 allocated per byte *)
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001B3L
  done;
  !h

type msg = Rbc of int * Bracha.msg | Aba of int * Aba_slot.msg

let pp_msg ppf = function
  | Rbc (j, m) -> Format.fprintf ppf "rbc%d:%a" j Bracha.pp_msg m
  | Aba (j, m) -> Format.fprintf ppf "aba%d:%a" j Aba_slot.pp_msg m

type params = { cfg : Types.cfg; coin_seed : int64 }

type slot = {
  rbc : Bracha.t;
  mutable aba : Aba_slot.t option;  (* started once the input is known *)
  mutable buffered : (Types.pid * Aba_slot.msg) list;  (* reverse order *)
}

type t = {
  p : params;
  me : Types.pid;
  slots : slot array;
  mutable zero_filled : bool;  (* inputs 0 sent to the remaining slots *)
  mutable terminated : bool;
  mutable final : (int * payload) list option;
      (* the output, recorded at termination: the slots' ABAs are gone *)
}

let wrap j msgs = List.map (fun m -> Aba (j, m)) msgs

let slot_coin t j =
  Coin.create Coin.Strong ~n:t.p.cfg.Types.n ~degree:t.p.cfg.Types.t
    ~seed:(Int64.add t.p.coin_seed (Int64.of_int (31 * j)))

let aba_params t j =
  { Aba_slot.cfg = t.p.cfg;
    mode = `Byz;
    coin = slot_coin t j;
    bca_params = (fun ~round:_ -> t.p.cfg) }

(* Start ABA_j with [input], replaying any buffered traffic. *)
let start_aba t j input =
  let slot = t.slots.(j) in
  match slot.aba with
  | Some _ -> []
  | None ->
    let aba, init = Aba_slot.create (aba_params t j) ~me:t.me ~input in
    slot.aba <- Some aba;
    let replayed =
      List.concat_map
        (fun (from, m) -> Aba_slot.handle aba ~from m)
        (List.rev slot.buffered)
    in
    slot.buffered <- [];
    wrap j (init @ replayed)

let decided_one t =
  Array.fold_left
    (fun acc slot ->
      match slot.aba with
      | Some aba when (match Aba_slot.committed aba with Some v -> Value.to_bool v | None -> false) -> acc + 1
      | Some _ | None -> acc)
    0 t.slots

(* The ACS input rules: 1 on RBC delivery, 0 for the rest once n - t slots
   have decided 1. *)
let progress t =
  let out = ref [] in
  Array.iteri
    (fun j slot ->
      if slot.aba = None && Bracha.delivered slot.rbc <> None then
        out := !out @ start_aba t j Value.V1)
    t.slots;
  if (not t.zero_filled) && decided_one t >= Types.quorum t.p.cfg then begin
    t.zero_filled <- true;
    Array.iteri
      (fun j slot -> if slot.aba = None then out := !out @ start_aba t j Value.V0)
      t.slots
  end;
  !out

let create p ~me ~proposal =
  Types.check_byz_resilience p.cfg;
  let t =
    { p;
      me;
      slots =
        Array.init p.cfg.Types.n (fun j ->
            { rbc = Bracha.create p.cfg ~me ~sender:j; aba = None; buffered = [] });
      zero_filled = false;
      terminated = false;
      final = None }
  in
  let init =
    List.map (fun m -> Rbc (me, m)) (Bracha.broadcast t.slots.(me).rbc proposal)
  in
  (t, init)

let subset t =
  let all_committed =
    Array.for_all
      (fun slot -> match slot.aba with Some aba -> Aba_slot.committed aba <> None | None -> false)
      t.slots
  in
  if not all_committed then None
  else begin
    let accepted = ref [] in
    let missing = ref false in
    Array.iteri
      (fun j slot ->
        match slot.aba with
        | Some aba when (match Aba_slot.committed aba with Some v -> Value.to_bool v | None -> false) ->
          (match Bracha.delivered slot.rbc with
          | Some payload -> accepted := (j, payload) :: !accepted
          | None -> missing := true)
        | Some _ | None -> ())
      t.slots;
    if !missing then None else Some (List.sort (fun (a, _) (b, _) -> Int.compare a b) !accepted)
  end

let output t = if t.terminated then t.final else subset t

(* Multivalued selection: the payload backing the most accepted slots.
   The accepted set has >= n - t slots, so >= t + 1 carry an honest
   proposal while any other payload holds at most t slots - under
   unanimous honest inputs the unanimous value wins strictly, which is
   the validity the monitor enforces.  Ties (possible only without
   unanimity) break on the smaller digest, then the smaller payload, so
   every honest party - holding the same common subset - selects
   identically. *)
let select slots =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (_, payload) ->
      let d = digest payload in
      let count = match Hashtbl.find_opt tally (d, payload) with Some c -> c | None -> 0 in
      Hashtbl.replace tally (d, payload) (count + 1))
    slots;
  List.fold_left
    (fun best ((_, payload), count) ->
      match best with
      | Some (_, bc) when bc >= count -> best
      | _ -> Some (payload, count))
    None
    (Bca_util.Det.bindings
       ~compare:(fun (d1, p1) (d2, p2) ->
         match Int64.compare d1 d2 with 0 -> String.compare p1 p2 | c -> c)
       tally)
  |> Option.map fst

let decided t = Option.bind (output t) select

let all_slots_terminated t =
  Array.for_all
    (fun slot -> match slot.aba with Some aba -> Aba_slot.terminated aba | None -> false)
    t.slots

(* The slot index [j] arrives on the wire: a faulty peer can name any
   slot, so it is validated before any array access and the message
   dropped when out of range. *)
let slot_of t j =
  if Bca_util.Bounds.index_ok ~len:(Array.length t.slots) j then Some t.slots.(j) else None

let rbc_handle t ~from j m =
  match slot_of t j with
  | Some slot -> List.map (fun m -> Rbc (j, m)) (Bracha.handle slot.rbc ~from m)
  | None -> []

(* Termination keeps only what a finished instance can still be asked
   for: the output, and per slot the broadcast's pull state (held
   payloads, requesters served, the delivered payload).  Each slot's ABA
   rounds and buffered traffic are dropped - they answer nothing once
   every slot has terminated. *)
let retire t o =
  t.final <- Some o;
  t.terminated <- true;
  Array.iter
    (fun slot ->
      slot.aba <- None;
      slot.buffered <- [];
      Bracha.retire slot.rbc)
    t.slots

(* Once terminated, an instance still answers payload pulls: a replica
   that never got slot [j]'s [Initial] may reach its ready quorum after
   every holder has terminated, and only a holder's answer lets it
   deliver (Bracha's totality, and so the common subset everywhere).  A
   retired broadcast answers [Fetch] and ignores the rest. *)
let handle t ~from msg =
  if t.terminated then
    match msg with
    | Rbc (j, m) -> rbc_handle t ~from j m
    | Aba _ -> []
  else begin
    let out =
      match msg with
      | Rbc (j, m) -> rbc_handle t ~from j m
      | Aba (j, m) -> (
        match slot_of t j with
        | None -> []
        | Some slot -> (
          match slot.aba with
          | Some aba -> wrap j (Aba_slot.handle aba ~from m)
          | None ->
            slot.buffered <- (from, m) :: slot.buffered;
            []))
    in
    let out = out @ progress t in
    if all_slots_terminated t then begin
      match subset t with Some o -> retire t o | None -> ()
    end;
    out
  end

let terminated t = t.terminated

let node t =
  Bca_netsim.Node.make
    ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
    ~terminated:(fun () -> t.terminated)
    ()
