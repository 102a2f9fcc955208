module Wire = Bca_wire.Wire
module Put = Wire.Put
module Get = Wire.Get
module Value = Bca_util.Value
module Threshold = Bca_crypto.Threshold

(* The same functor applications Aba exposes; OCaml's applicative functor
   paths make these message types equal to the stack types by construction. *)
module Crash_strong = Aa.Make (Aa.Strong (Bca_crash))
module Crash_weak = Aa.Make (Aa.Graded (Gbca_crash))
module Byz_strong = Aa.Make (Aa.Strong (Bca_byz))
module Byz_weak = Aa.Make (Aa.Graded (Gbca_byz))
module Byz_tsig = Aa.Make (Aa.Strong (Bca_tsig))

let malformed fmt = Printf.ksprintf (fun msg -> raise (Get.Malformed msg)) fmt

(* ---- shared field encodings ---------------------------------------- *)

let put_cvalue buf = function
  | Types.Bot -> Put.u8 buf 0
  | Types.Val Value.V0 -> Put.u8 buf 1
  | Types.Val Value.V1 -> Put.u8 buf 2

let get_cvalue g =
  match Get.u8 g with
  | 0 -> Types.Bot
  | 1 -> Types.Val Value.V0
  | 2 -> Types.Val Value.V1
  | v -> malformed "invalid crusader-value byte %d" v

let put_share buf s =
  let signer, tag, mac = Threshold.share_repr s in
  Put.varint buf signer;
  Put.string buf tag;
  Put.i64 buf mac

let get_share g =
  let signer = Get.varint g in
  let tag = Get.string g in
  let mac = Get.i64 g in
  Threshold.share_unsafe_of_repr ~signer ~tag ~mac

let put_signature buf s =
  let tag, k, cert = Threshold.signature_repr s in
  Put.string buf tag;
  Put.varint buf k;
  Put.i64 buf cert

let get_signature g =
  let tag = Get.string g in
  let k = Get.varint g in
  let cert = Get.i64 g in
  Threshold.signature_unsafe_of_repr ~tag ~k ~cert

(* A serialized signature is at least 10 bytes (1 length + 1 varint + 8
   cert), so a list count is bounded by the remaining body size - reject
   counts that could not possibly fit instead of pre-allocating for them. *)
let get_list g ~min_item_bytes get_item =
  let count = Get.varint g in
  (* the lower bound is defensive: Get.varint rejects encodings that
     overflow to a negative int, but List.init raising on a negative
     count would escape the Malformed-only handlers *)
  if not (Bca_util.Bounds.fits ~max:(Get.remaining g / min_item_bytes) count) then
    malformed "list count %d exceeds body size" count;
  List.init count (fun _ -> get_item g)

(* ---- per-stack codecs ---------------------------------------------- *)

(* Body grammar, written once for every [Aa.Make] stack: tag 0 is the
   termination-layer [Committed v]; tags 1..[tags] are [Bca (r, m)] as
   [tag:u8][r:varint][fields], where [tag m] and the fields are the inner
   (G)BCA message's.  [get tag g] reads the fields of a tag in range. *)
module Framed (A : Aa.S) = struct
  let codec ~id ~name ~tags ~tag ~put ~get : A.msg Wire.codec =
    { Wire.id;
      name;
      enc =
        (fun buf -> function
          | A.Committed v ->
            Put.u8 buf 0;
            Put.value buf v
          | A.Bca (r, m) ->
            Put.u8 buf (tag m);
            Put.varint buf r;
            put buf m);
      dec =
        (fun g ->
          match Get.u8 g with
          | 0 -> A.Committed (Get.value g)
          | t when t <= tags ->
            let r = Get.varint g in
            A.Bca (r, get t g)
          | t -> malformed "unknown %s tag %d" name t) }
end

let crash_strong =
  let module F = Framed (Crash_strong) in
  F.codec ~id:1 ~name:"crash-strong" ~tags:2
    ~tag:(function Bca_crash.MVal _ -> 1 | Bca_crash.MEcho _ -> 2)
    ~put:(fun buf -> function
      | Bca_crash.MVal v -> Put.value buf v
      | Bca_crash.MEcho cv -> put_cvalue buf cv)
    ~get:(fun tag g ->
      if tag = 1 then Bca_crash.MVal (Get.value g) else Bca_crash.MEcho (get_cvalue g))

let crash_weak =
  let module F = Framed (Crash_weak) in
  F.codec ~id:2 ~name:"crash-weak" ~tags:3
    ~tag:(function Gbca_crash.MVal _ -> 1 | Gbca_crash.MEcho _ -> 2 | Gbca_crash.MEcho2 _ -> 3)
    ~put:(fun buf -> function
      | Gbca_crash.MVal v -> Put.value buf v
      | Gbca_crash.MEcho cv | Gbca_crash.MEcho2 cv -> put_cvalue buf cv)
    ~get:(fun tag g ->
      match tag with
      | 1 -> Gbca_crash.MVal (Get.value g)
      | 2 -> Gbca_crash.MEcho (get_cvalue g)
      | _ -> Gbca_crash.MEcho2 (get_cvalue g))

let byz_strong =
  let module F = Framed (Byz_strong) in
  F.codec ~id:3 ~name:"byz-strong" ~tags:3
    ~tag:(function Bca_byz.MEcho _ -> 1 | Bca_byz.MEcho2 _ -> 2 | Bca_byz.MEcho3 _ -> 3)
    ~put:(fun buf -> function
      | Bca_byz.MEcho v | Bca_byz.MEcho2 v -> Put.value buf v
      | Bca_byz.MEcho3 cv -> put_cvalue buf cv)
    ~get:(fun tag g ->
      match tag with
      | 1 -> Bca_byz.MEcho (Get.value g)
      | 2 -> Bca_byz.MEcho2 (Get.value g)
      | _ -> Bca_byz.MEcho3 (get_cvalue g))

let byz_weak =
  let module F = Framed (Byz_weak) in
  F.codec ~id:4 ~name:"byz-weak" ~tags:5
    ~tag:(function
      | Gbca_byz.MEcho _ -> 1
      | Gbca_byz.MEcho2 _ -> 2
      | Gbca_byz.MEcho3 _ -> 3
      | Gbca_byz.MEcho4 _ -> 4
      | Gbca_byz.MEcho5 _ -> 5)
    ~put:(fun buf -> function
      | Gbca_byz.MEcho v | Gbca_byz.MEcho2 v -> Put.value buf v
      | Gbca_byz.MEcho3 cv | Gbca_byz.MEcho4 cv | Gbca_byz.MEcho5 cv -> put_cvalue buf cv)
    ~get:(fun tag g ->
      match tag with
      | 1 -> Gbca_byz.MEcho (Get.value g)
      | 2 -> Gbca_byz.MEcho2 (Get.value g)
      | 3 -> Gbca_byz.MEcho3 (get_cvalue g)
      | 4 -> Gbca_byz.MEcho4 (get_cvalue g)
      | _ -> Gbca_byz.MEcho5 (get_cvalue g))

let byz_tsig =
  let module F = Framed (Byz_tsig) in
  F.codec ~id:5 ~name:"byz-tsig" ~tags:3
    ~tag:(function Bca_tsig.MEcho _ -> 1 | Bca_tsig.MEcho2 _ -> 2 | Bca_tsig.MEcho3 _ -> 3)
    ~put:(fun buf -> function
      | Bca_tsig.MEcho (v, share) ->
        Put.value buf v;
        put_share buf share
      | Bca_tsig.MEcho2 (v, cert) ->
        Put.value buf v;
        put_signature buf cert
      | Bca_tsig.MEcho3 (cv, certs, share_opt) -> (
        put_cvalue buf cv;
        Put.varint buf (List.length certs);
        List.iter (put_signature buf) certs;
        match share_opt with
        | None -> Put.u8 buf 0
        | Some s ->
          Put.u8 buf 1;
          put_share buf s))
    ~get:(fun tag g ->
      match tag with
      | 1 ->
        let v = Get.value g in
        Bca_tsig.MEcho (v, get_share g)
      | 2 ->
        let v = Get.value g in
        Bca_tsig.MEcho2 (v, get_signature g)
      | _ ->
        let cv = get_cvalue g in
        let certs = get_list g ~min_item_bytes:10 get_signature in
        let share_opt =
          match Get.u8 g with
          | 0 -> None
          | 1 -> Some (get_share g)
          | b -> malformed "invalid option byte %d" b
        in
        Bca_tsig.MEcho3 (cv, certs, share_opt))

let coin_share : Bca_coin.Threshold_coin.share Wire.codec =
  { Wire.id = 6;
    name = "coin-share";
    enc = (fun buf s -> put_share buf (Bca_coin.Threshold_coin.share_to_threshold s));
    dec = (fun g -> Bca_coin.Threshold_coin.share_of_threshold (get_share g)) }

let codec_id_of_spec_name = function
  | "crash-strong" -> Some crash_strong.Wire.id
  | "crash-weak" | "crash-local" -> Some crash_weak.Wire.id
  | "byz-strong" -> Some byz_strong.Wire.id
  | "byz-weak" -> Some byz_weak.Wire.id
  | "byz-tsig" -> Some byz_tsig.Wire.id
  | _ -> None

(* One reusable scratch encoding per process: word accounting runs once
   per delivered message in the netsim metrics path, and a fresh buffer
   per call was measurable there.  Not reentrant - fine, codec encoders
   never call back into accounting. *)
let body_words_scratch = Buffer.create 256

let body_words codec m =
  Buffer.clear body_words_scratch;
  codec.Wire.enc body_words_scratch m;
  Wire.words_of_bytes (Buffer.length body_words_scratch)
