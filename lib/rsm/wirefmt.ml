module Wire = Bca_wire.Wire
module Put = Wire.Put
module Get = Wire.Get
module Bracha = Bca_baselines.Bracha

let malformed fmt = Printf.ksprintf (fun msg -> raise (Get.Malformed msg)) fmt

(* The codec nests the core byz-strong body ({!Bca_core.Wirefmt}) for its
   per-slot binary-agreement messages: an epoch's proposer slot runs the
   AA-1/2-over-BCA-Byz engine of codec 3, so its wire body is shared
   rather than re-specified. *)
let byz_body = Bca_core.Wirefmt.byz_strong

(* ---- shared field encodings ---------------------------------------- *)

(* [tag:u8] (1 initial / 2 echo / 3 ready) then the payload bytes. *)
let put_bracha buf = function
  | Bracha.Initial p ->
    Put.u8 buf 1;
    Put.string buf p
  | Bracha.Echo p ->
    Put.u8 buf 2;
    Put.string buf p
  | Bracha.Ready p ->
    Put.u8 buf 3;
    Put.string buf p

let get_bracha g =
  match Get.u8 g with
  | 1 -> Bracha.Initial (Get.string g)
  | 2 -> Bracha.Echo (Get.string g)
  | 3 -> Bracha.Ready (Get.string g)
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
