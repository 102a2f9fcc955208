(** Binary body codec for the replicated-log layer, in the
    {!Bca_core.Wirefmt} scheme (total decoding, [Get.Malformed] on any
    malformed body, codec ids disjoint from the core's 1-6):

    - {!rsm} (id 7) - windowed replicated-log messages ({!Rsm.msg})

    Id 8 is unassigned.  The codec nests the core [byz_strong] body
    (codec 3) for its per-slot binary-agreement traffic, so a slot message
    costs exactly the framing ([epoch] / [slot] varints + one tag byte)
    over its binary form.  Broadcast messages carry a payload only in
    [Initial] and [Payload]; [Echo], [Ready] and [Fetch] carry a fixed
    32-byte digest, so a digest of any other length is malformed. *)

val rsm : Rsm.msg Bca_wire.Wire.codec
(** Codec id 7. *)
