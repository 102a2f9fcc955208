module Wire = Bca_wire.Wire
module Put = Wire.Put
module Get = Wire.Get
module Bracha = Bca_baselines.Bracha
module Sha256 = Bca_crypto.Sha256

let malformed fmt = Printf.ksprintf (fun msg -> raise (Get.Malformed msg)) fmt

(* The codec nests the core byz-strong body ({!Bca_core.Wirefmt}) for its
   per-slot binary-agreement messages: an epoch's proposer slot runs the
   AA-1/2-over-BCA-Byz engine of codec 3, so its wire body is shared
   rather than re-specified. *)
let byz_body = Bca_core.Wirefmt.byz_strong

(* ---- shared field encodings ---------------------------------------- *)

(* [tag:u8] then the field: 1 initial and 5 payload carry the payload
   bytes (varint length + bytes); 2 echo, 3 ready and 4 fetch carry a
   fixed 32-byte SHA-256 digest with no length prefix, read with
   [Get.take] so a short or long digest is malformed. *)
let put_digest buf h =
  if String.length h <> Sha256.size then
    invalid_arg
      (Printf.sprintf "Wirefmt.rsm: a digest is %d bytes, not %d" Sha256.size (String.length h));
  Buffer.add_string buf h

let put_bracha buf = function
  | Bracha.Initial p ->
    Put.u8 buf 1;
    Put.string buf p
  | Bracha.Echo h ->
    Put.u8 buf 2;
    put_digest buf h
  | Bracha.Ready h ->
    Put.u8 buf 3;
    put_digest buf h
  | Bracha.Fetch h ->
    Put.u8 buf 4;
    put_digest buf h
  | Bracha.Payload p ->
    Put.u8 buf 5;
    Put.string buf p

let get_bracha g =
  match Get.u8 g with
  | 1 -> Bracha.Initial (Get.string g)
  | 2 -> Bracha.Echo (Get.take g Sha256.size)
  | 3 -> Bracha.Ready (Get.take g Sha256.size)
  | 4 -> Bracha.Fetch (Get.take g Sha256.size)
  | 5 -> Bracha.Payload (Get.string g)
  | t -> malformed "unknown bracha tag %d" t

(* ---- codecs --------------------------------------------------------- *)

(* Body grammar: [epoch:varint] [tag:u8] [slot:varint] then the slot body -
   tag 1 an RBC message, tag 2 a byz-strong (codec 3) body. *)
let rsm : Rsm.msg Wire.codec =
  { Wire.id = 7;
    name = "rsm";
    enc =
      (fun buf -> function
        | Rsm.Epoch (e, Acs.Rbc (j, m)) ->
          Put.varint buf e;
          Put.u8 buf 1;
          Put.varint buf j;
          put_bracha buf m
        | Rsm.Epoch (e, Acs.Aba (j, m)) ->
          Put.varint buf e;
          Put.u8 buf 2;
          Put.varint buf j;
          byz_body.Wire.enc buf m);
    dec =
      (fun g ->
        let e = Get.varint g in
        match Get.u8 g with
        | 1 ->
          let j = Get.varint g in
          Rsm.Epoch (e, Acs.Rbc (j, get_bracha g))
        | 2 ->
          let j = Get.varint g in
          Rsm.Epoch (e, Acs.Aba (j, byz_body.Wire.dec g))
        | t -> malformed "unknown rsm tag %d" t) }
