module Quorum = Bca_util.Quorum
module Types = Bca_core.Types
module Sha256 = Bca_crypto.Sha256

type digest = string

type msg =
  | Initial of string
  | Echo of digest
  | Ready of digest
  | Fetch of digest
  | Payload of string

let short h =
  let hex = Sha256.to_hex h in
  String.sub hex 0 (min 8 (String.length hex))

let pp_msg ppf = function
  | Initial x -> Format.fprintf ppf "initial(%s)" x
  | Echo h -> Format.fprintf ppf "echo(%s)" (short h)
  | Ready h -> Format.fprintf ppf "ready(%s)" (short h)
  | Fetch h -> Format.fprintf ppf "fetch(%s)" (short h)
  | Payload x -> Format.fprintf ppf "payload(%s)" x

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  sender : Types.pid;
  mutable echoes : digest Quorum.t;
  mutable readies : digest Quorum.t;
  mutable held : (digest * string) list;
      (* payloads on hand, with their digests: the sender's [Initial] and,
         if that was missing or wrong, the one pulled payload *)
  mutable echoed : bool;
  mutable readied : bool;
  mutable fetched : bool;
  mutable served : Types.pid list;  (* requesters already answered *)
  mutable delivered : string option;
  mutable retired : bool;  (* tallies dropped: only [Fetch] is answered *)
}

let create cfg ~me ~sender =
  Types.check_byz_resilience cfg;
  { cfg;
    me;
    sender;
    echoes = Quorum.create ();
    readies = Quorum.create ();
    held = [];
    echoed = false;
    readied = false;
    fetched = false;
    served = [];
    delivered = None;
    retired = false }

let broadcast t x =
  assert (t.me = t.sender);
  [ Initial x ]

let held t h = List.find_map (fun (h', x) -> if String.equal h h' then Some x else None) t.held

(* t+1 readies: at least one honest party vouched for the digest. *)
let vouched t h = Quorum.count t.readies h >= Quorum.plurality ~t:t.cfg.Types.t

(* Every received digest is a candidate; thresholds follow Bracha: echo
   on the sender's initial, ready on n-t echoes or t+1 readies, deliver on
   2t+1 readies plus a held payload with that digest - or pull one with a
   single [Fetch] when none is held. *)
let progress t =
  let q = Types.quorum t.cfg in
  let tt = t.cfg.Types.t in
  let out = ref [] in
  let candidates =
    List.sort_uniq String.compare (Quorum.values t.echoes @ Quorum.values t.readies)
  in
  List.iter
    (fun h ->
      if (not t.readied) && (Quorum.count t.echoes h >= q || vouched t h) then begin
        t.readied <- true;
        out := !out @ [ Ready h ]
      end;
      if Option.is_none t.delivered && Quorum.count t.readies h >= Quorum.supermajority ~t:tt
      then
        match held t h with
        | Some x -> t.delivered <- Some x
        | None ->
          if not t.fetched then begin
            t.fetched <- true;
            out := !out @ [ Fetch h ]
          end)
    candidates;
  !out

(* A pulled payload is worth hashing only while some vouched digest has
   no payload on hand. *)
let awaits_payload t =
  Option.is_none t.delivered
  && List.exists (fun h -> vouched t h && Option.is_none (held t h)) (Quorum.values t.readies)

let handle t ~from msg =
  match msg with
  | (Initial _ | Echo _ | Ready _ | Payload _) when t.retired -> []
  | Initial x ->
    if from = t.sender && not t.echoed then begin
      t.echoed <- true;
      let h = Sha256.digest x in
      t.held <- (h, x) :: t.held;
      Echo h :: progress t
    end
    else []
  | Echo h -> if Quorum.add_first t.echoes ~pid:from h then progress t else []
  | Ready h -> if Quorum.add_first t.readies ~pid:from h then progress t else []
  | Fetch h -> (
    if List.mem from t.served then []
    else
      match held t h with
      | Some x ->
        t.served <- from :: t.served;
        [ Payload x ]
      | None -> [])
  | Payload x ->
    if not (awaits_payload t) then []
    else begin
      let h = Sha256.digest x in
      if vouched t h && Option.is_none (held t h) then begin
        t.held <- (h, x) :: t.held;
        progress t
      end
      else []
    end

let delivered t = t.delivered

(* The tallies are what a live broadcast grows with (one entry per
   sender per digest); a retired one only serves pulls, which need
   [held] and [served] alone. *)
let retire t =
  if not t.retired then begin
    t.retired <- true;
    t.echoes <- Quorum.create ();
    t.readies <- Quorum.create ()
  end
