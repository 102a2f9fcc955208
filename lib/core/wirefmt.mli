(** Binary body codecs for every protocol message type (the message ↔ wire
    mapping).

    [Bca_wire.Wire] owns the framing (magic, version, CRC, sender pid,
    length prefix); this module owns what goes {e inside} a frame for each
    of the six protocol stacks, plus the coin-share and threshold-signature
    payloads they embed.  One codec per agreement-layer message type:

    - {!crash_strong} - [Aa.Make (Aa.Strong (Bca_crash))] (Algorithm 1 + 3)
    - {!crash_weak} - [Aa.Make (Aa.Graded (Gbca_crash))] (Algorithm 2 + 5);
      the local-coin stack shares this message type, hence this codec
    - {!byz_strong} - [Aa.Make (Aa.Strong (Bca_byz))] (Algorithm 1 + 4)
    - {!byz_weak} - [Aa.Make (Aa.Graded (Gbca_byz))] (Algorithm 2 + 6)
    - {!byz_tsig} - [Aa.Make (Aa.Strong (Bca_tsig))] (Algorithm 1 + 7), whose
      messages carry threshold-signature shares and certificates
    - {!coin_share} - standalone Cachin-Kursawe-Shoup coin shares
      ([Bca_coin.Threshold_coin]), for deployments that ship them as their
      own frames instead of piggybacking

    Body grammar (all integers as described in [Bca_wire.Wire.Put]): every
    body starts with a one-byte message tag.  Tag 0 is the termination
    layer's [Committed v], followed by the value; every other tag is a
    round's (G)BCA message, followed by the round number as a varint (the
    frame's instance/round tag), then the constructor's fields.  This
    framing is shared by all five agreement codecs.  Values are one byte (0/1),
    crusader values one byte (0 = bottom, 1/2 = value), threshold shares
    are [varint signer, string tag, 8-byte MAC], signatures are
    [string tag, varint k, 8-byte certificate].

    Decoding is total: any non-conforming body raises
    [Bca_wire.Wire.Get.Malformed] inside the codec, which
    [Bca_wire.Wire.decode_body] converts to a typed error.  Round-trip and
    adversarial-input properties are fuzzed in [test/test_wire.ml]. *)

val crash_strong : Aa.Make(Aa.Strong(Bca_crash)).msg Bca_wire.Wire.codec
(** Codec id 1. *)

val crash_weak : Aa.Make(Aa.Graded(Gbca_crash)).msg Bca_wire.Wire.codec
(** Codec id 2 (also the [crash-local] stack). *)

val byz_strong : Aa.Make(Aa.Strong(Bca_byz)).msg Bca_wire.Wire.codec
(** Codec id 3. *)

val byz_weak : Aa.Make(Aa.Graded(Gbca_byz)).msg Bca_wire.Wire.codec
(** Codec id 4. *)

val byz_tsig : Aa.Make(Aa.Strong(Bca_tsig)).msg Bca_wire.Wire.codec
(** Codec id 5. *)

val coin_share : Bca_coin.Threshold_coin.share Bca_wire.Wire.codec
(** Codec id 6. *)

val codec_id_of_spec_name : string -> int option
(** The codec id a stack name ([crash-strong], [crash-weak], [crash-local],
    [byz-strong], [byz-weak], [byz-tsig]) frames with - what a transport
    multiplexer needs to route without instantiating message types. *)

val body_words : 'm Bca_wire.Wire.codec -> 'm -> int
(** Paper-style word count of one message: its encoded body rounded up to
    64-bit words.  Encodes into one process-wide scratch buffer (reused,
    never returned), so the accounting path allocates nothing per call.
    Not reentrant; bench/accounting use. *)
