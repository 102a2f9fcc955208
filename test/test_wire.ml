(* Wire-format tests: canonical round-trips for every constructor of every
   codec, frame accounting, and adversarial decoding - random bytes,
   truncations, flipped CRCs, future versions, wrong codec ids - which must
   yield typed errors, never exceptions.  Also the stream Reader: chunked
   reassembly is split-point independent and a corrupted stream poisons the
   reader permanently. *)

module W = Bca_wire.Wire
module Wf = Bca_core.Wirefmt
module Value = Bca_util.Value
module Types = Bca_core.Types
module Threshold = Bca_crypto.Threshold
module Tcoin = Bca_coin.Threshold_coin

(* Aba's stacks are the functor applications Wirefmt encodes, so the
   message types are equal by construction. *)
module Crash_strong = Bca_core.Aba.Crash_strong_stack
module Crash_weak = Bca_core.Aba.Crash_weak_stack
module Byz_strong = Bca_core.Aba.Byz_strong_stack
module Byz_weak = Bca_core.Aba.Byz_weak_stack
module Byz_tsig = Bca_core.Aba.Byz_tsig_stack

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

open QCheck2

let gen_value = Gen.(map Value.of_bool bool)

let gen_cvalue =
  Gen.oneofl [ Types.Bot; Types.Val Value.V0; Types.Val Value.V1 ]

let gen_round = Gen.int_bound 100_000

let gen_tag_string = Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 24))

let gen_i64 = Gen.(map Int64.of_int int)

let gen_share =
  Gen.map
    (fun ((signer, tag), mac) -> Threshold.share_unsafe_of_repr ~signer ~tag ~mac)
    Gen.(pair (pair (int_bound 1000) gen_tag_string) gen_i64)

let gen_signature =
  Gen.map
    (fun ((tag, k), cert) -> Threshold.signature_unsafe_of_repr ~tag ~k ~cert)
    Gen.(pair (pair gen_tag_string (int_bound 1000)) gen_i64)

let gen_crash_strong : Crash_strong.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Crash_strong.Committed v) gen_value;
      Gen.map2 (fun r v -> Crash_strong.Bca (r, Bca_core.Bca_crash.MVal v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Crash_strong.Bca (r, Bca_core.Bca_crash.MEcho cv))
        gen_round gen_cvalue ]

let gen_crash_weak : Crash_weak.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Crash_weak.Committed v) gen_value;
      Gen.map2 (fun r v -> Crash_weak.Bca (r, Bca_core.Gbca_crash.MVal v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Crash_weak.Bca (r, Bca_core.Gbca_crash.MEcho cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Crash_weak.Bca (r, Bca_core.Gbca_crash.MEcho2 cv))
        gen_round gen_cvalue ]

let gen_byz_strong : Byz_strong.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_strong.Committed v) gen_value;
      Gen.map2 (fun r v -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho v)) gen_round gen_value;
      Gen.map2 (fun r v -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho2 v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho3 cv))
        gen_round gen_cvalue ]

let gen_byz_weak : Byz_weak.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_weak.Committed v) gen_value;
      Gen.map2 (fun r v -> Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho v)) gen_round gen_value;
      Gen.map2 (fun r v -> Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho2 v)) gen_round gen_value;
      Gen.map2
        (fun r cv -> Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho3 cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho4 cv))
        gen_round gen_cvalue;
      Gen.map2
        (fun r cv -> Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho5 cv))
        gen_round gen_cvalue ]

let gen_byz_tsig : Byz_tsig.msg Gen.t =
  Gen.oneof
    [ Gen.map (fun v -> Byz_tsig.Committed v) gen_value;
      Gen.map2
        (fun r (v, s) -> Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho (v, s)))
        gen_round (Gen.pair gen_value gen_share);
      Gen.map2
        (fun r (v, c) -> Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho2 (v, c)))
        gen_round (Gen.pair gen_value gen_signature);
      Gen.map2
        (fun r ((cv, certs), share_opt) ->
          Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho3 (cv, certs, share_opt)))
        gen_round
        (Gen.pair
           (Gen.pair gen_cvalue (Gen.list_size (Gen.int_bound 4) gen_signature))
           (Gen.option gen_share)) ]

let gen_coin_share : Tcoin.share Gen.t = Gen.map Tcoin.share_of_threshold gen_share

let gen_sender = Gen.int_bound W.max_sender

(* ------------------------------------------------------------------ *)
(* Round-trips                                                          *)
(* ------------------------------------------------------------------ *)

let body_of codec m =
  let buf = Buffer.create 64 in
  codec.W.enc buf m;
  Buffer.contents buf

(* encode -> decode -> re-encode must be the identity on bytes (canonical
   encoding), and the header fields must survive.  Byte equality of the
   re-encoding implies message equality without needing polymorphic
   compare on abstract crypto values. *)
let roundtrip_test name codec gen =
  Test.make ~count:400 ~name:(name ^ " round-trips") (Gen.pair gen gen_sender)
    (fun (m, sender) ->
      let s = W.encode codec ~sender m in
      match W.decode codec s with
      | Error e -> Test.fail_reportf "decode failed: %s" (W.error_to_string e)
      | Ok (m', f) ->
        if f.W.sender <> sender then Test.fail_reportf "sender %d became %d" sender f.W.sender;
        if f.W.codec_id <> codec.W.id then Test.fail_report "codec id mangled";
        if not (String.equal (body_of codec m') (body_of codec m)) then
          Test.fail_report "re-encoding differs (decode is not inverse)";
        if W.frame_bytes f <> String.length s then Test.fail_report "frame_bytes mismatch";
        if W.frame_words f <> W.words_of_bytes (String.length s) then
          Test.fail_report "frame_words mismatch";
        true)

let roundtrips =
  [ roundtrip_test "crash-strong" Wf.crash_strong gen_crash_strong;
    roundtrip_test "crash-weak" Wf.crash_weak gen_crash_weak;
    roundtrip_test "byz-strong" Wf.byz_strong gen_byz_strong;
    roundtrip_test "byz-weak" Wf.byz_weak gen_byz_weak;
    roundtrip_test "byz-tsig" Wf.byz_tsig gen_byz_tsig;
    roundtrip_test "coin-share" Wf.coin_share gen_coin_share ]

(* ------------------------------------------------------------------ *)
(* Adversarial decoding: typed errors, never exceptions                 *)
(* ------------------------------------------------------------------ *)

(* Exercise every decode entry point on arbitrary bytes; the property is
   only "no exception escapes" - random bytes occasionally form a valid
   frame and that is fine. *)
let decode_everything s =
  (match W.decode_frame s ~pos:0 with
  | Ok (f, _) ->
    ignore (W.decode_body Wf.crash_strong f : (_, W.error) result);
    ignore (W.decode_body Wf.byz_tsig f : (_, W.error) result)
  | Error (_ : W.error) -> ());
  ignore (W.decode Wf.byz_strong s : (_, W.error) result);
  let r = W.Reader.create () in
  W.Reader.feed r (Bytes.of_string s) ~pos:0 ~len:(String.length s);
  let rec drain () =
    match W.Reader.next r with
    | Ok (Some _) -> drain ()
    | Ok None | Error (_ : W.error) -> ()
  in
  drain ()

let prop_random_bytes_never_raise =
  Test.make ~count:1000 ~name:"random bytes decode to typed errors, never raise"
    Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 120))
    (fun s ->
      decode_everything s;
      true)

(* A valid frame with one byte flipped must still decode without raising;
   flips outside the sender field cannot silently succeed (magic, version,
   length, CRC or body all tie the bytes down). *)
let prop_single_byte_flip =
  Test.make ~count:600 ~name:"one-byte corruption of a valid frame never raises"
    (Gen.pair (Gen.pair gen_byz_tsig gen_sender) (Gen.pair (Gen.int_bound 10_000) (Gen.int_range 1 255))
    )
    (fun ((m, sender), (pos_seed, xor)) ->
      let s = W.encode Wf.byz_tsig ~sender m in
      let pos = pos_seed mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor xor));
      let s' = Bytes.to_string b in
      decode_everything s';
      (match W.decode Wf.byz_tsig s' with
      | Ok _ when pos = 4 || pos = 5 -> () (* sender bytes are not covered by the CRC *)
      | Ok _ -> Test.fail_reportf "corruption at offset %d went undetected" pos
      | Error (_ : W.error) -> ());
      true)

let prop_truncation =
  Test.make ~count:200 ~name:"every proper prefix is Truncated, never an exception"
    (Gen.pair gen_byz_weak gen_sender)
    (fun (m, sender) ->
      let s = W.encode Wf.byz_weak ~sender m in
      for len = 0 to String.length s - 1 do
        match W.decode_frame (String.sub s 0 len) ~pos:0 with
        | Ok _ -> Test.fail_reportf "prefix of %d/%d bytes decoded" len (String.length s)
        | Error (W.Truncated _) -> ()
        | Error e ->
          Test.fail_reportf "prefix of %d bytes: unexpected %s" len (W.error_to_string e)
      done;
      true)

let patch s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b

let test_flipped_crc () =
  let s = W.encode Wf.crash_strong ~sender:2 (Crash_strong.Committed Value.V1) in
  (* flip a CRC byte (offsets 10-13) and, separately, a body byte *)
  List.iter
    (fun pos ->
      let s' = patch s pos (Char.chr (Char.code s.[pos] lxor 0x40)) in
      match W.decode Wf.crash_strong s' with
      | Error (W.Bad_crc _) -> ()
      | Error e -> Alcotest.failf "flip at %d: expected Bad_crc, got %s" pos (W.error_to_string e)
      | Ok _ -> Alcotest.failf "flip at %d went undetected" pos)
    [ 10; 13; W.header_bytes; String.length s - 1 ]

let test_future_version () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  let s' = patch s 2 (Char.chr (W.version + 1)) in
  match W.decode_frame s' ~pos:0 with
  | Error (W.Unsupported_version v) ->
    Alcotest.(check int) "reported version" (W.version + 1) v
  | Error e -> Alcotest.failf "expected Unsupported_version, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "future version accepted"

let test_bad_magic () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  match W.decode_frame (patch s 0 '\x00') ~pos:0 with
  | Error W.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_wrong_codec () =
  let s = W.encode Wf.crash_strong ~sender:1 (Crash_strong.Committed Value.V0) in
  match W.decode Wf.byz_strong s with
  | Error (W.Wrong_codec { expected; got }) ->
    Alcotest.(check int) "expected id" Wf.byz_strong.W.id expected;
    Alcotest.(check int) "got id" Wf.crash_strong.W.id got
  | Error e -> Alcotest.failf "expected Wrong_codec, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong codec accepted"

let test_oversized () =
  (* hand-build a header claiming a body one past the decoder's limit *)
  let buf = Buffer.create W.header_bytes in
  Buffer.add_char buf '\xBC';
  Buffer.add_char buf '\xA1';
  Buffer.add_char buf (Char.chr W.version);
  Buffer.add_char buf '\x03';
  W.Put.u16 buf 0;
  W.Put.u32 buf (W.default_max_body + 1);
  W.Put.u32 buf 0;
  match W.decode_frame (Buffer.contents buf) ~pos:0 with
  | Error (W.Oversized { len; limit }) ->
    Alcotest.(check int) "claimed len" (W.default_max_body + 1) len;
    Alcotest.(check int) "limit" W.default_max_body limit
  | Error e -> Alcotest.failf "expected Oversized, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* 9-byte LEB128 with payload bit 62 set: the value wraps OCaml's 63-bit
   int negative.  A CRC-valid frame carrying it as a string length (or a
   list count) must decode to Malformed_body, not raise out of the
   decoder (regression: String.sub / List.init Invalid_argument escaped). *)
let overflow_varint = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

let test_varint_overflow_string_len () =
  (* byz-tsig MEcho: tag 1, round 0, value V0, share signer 0, then the
     share's tag-string length is the overflowing varint *)
  let body = "\x01\x00\x00\x00" ^ overflow_varint in
  let s = W.encode_raw ~codec_id:Wf.byz_tsig.W.id ~sender:0 body in
  decode_everything s;
  match W.decode Wf.byz_tsig s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "overflowing varint accepted"

let test_varint_overflow_list_count () =
  (* byz-tsig MEcho3: tag 3, round 0, cvalue Bot, then the cert-list count
     is the overflowing varint *)
  let body = "\x03\x00\x00" ^ overflow_varint in
  let s = W.encode_raw ~codec_id:Wf.byz_tsig.W.id ~sender:0 body in
  decode_everything s;
  match W.decode Wf.byz_tsig s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "overflowing list count accepted"

let test_varint_max_int () =
  (* the largest value that does NOT overflow still round-trips *)
  let buf = Buffer.create 16 in
  W.Put.varint buf max_int;
  let s = Buffer.contents buf in
  let g = W.Get.create s ~pos:0 ~len:(String.length s) in
  Alcotest.(check int) "max_int round-trips" max_int (W.Get.varint g)

let test_trailing_body_bytes () =
  let body = body_of Wf.byz_strong (Byz_strong.Committed Value.V1) ^ "\x00" in
  let s = W.encode_raw ~codec_id:Wf.byz_strong.W.id ~sender:0 body in
  match W.decode Wf.byz_strong s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing body bytes accepted"

(* ------------------------------------------------------------------ *)
(* Batch frames                                                         *)
(* ------------------------------------------------------------------ *)

module B = Bca_wire.Batch

let gen_record_body = Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 48))

let gen_records = Gen.(list_size (int_range 1 12) (pair (int_bound 100_000) gen_record_body))

let iter_view_records v =
  let got = ref [] in
  match
    B.iter_view v ~record:(fun ~instance g ->
        got := (instance, W.Get.take g (W.Get.remaining g)) :: !got)
  with
  | Ok (inner, count) -> Ok (inner, count, List.rev !got)
  | Error e -> Error e

(* Both decode paths - the copying [decode] and the in-place [iter_view] -
   must be exact inverses of [encode], agreeing with each other on every
   record. *)
let prop_batch_roundtrip =
  Test.make ~count:400 ~name:"batch frames round-trip (decode and iter_view)"
    (Gen.pair gen_records gen_sender)
    (fun (records, sender) ->
      let s = B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender records in
      (match B.decode s with
      | Error e -> Test.fail_reportf "decode: %s" (W.error_to_string e)
      | Ok d ->
        if d.B.sender <> sender then Test.fail_report "sender mangled";
        if d.B.inner_codec_id <> Wf.byz_strong.W.id then Test.fail_report "inner id mangled";
        if d.B.records <> records then Test.fail_report "decode: records differ");
      (match W.decode_frame_view s ~pos:0 with
      | Error e -> Test.fail_reportf "frame view: %s" (W.error_to_string e)
      | Ok (v, used) ->
        if used <> String.length s then Test.fail_report "frame shorter than string";
        (match iter_view_records v with
        | Error e -> Test.fail_reportf "iter_view: %s" (W.error_to_string e)
        | Ok (inner, count, got) ->
          if inner <> Wf.byz_strong.W.id then Test.fail_report "iter_view: inner id mangled";
          if count <> List.length records then Test.fail_report "iter_view: count mangled";
          if got <> records then Test.fail_report "iter_view: records differ"));
      true)

(* Batch records carrying real protocol messages decode back to the same
   messages in place - the receive path the multi-instance executor runs. *)
let prop_batch_protocol_records =
  Test.make ~count:200 ~name:"batch records decode in place with the stack codec"
    (Gen.list_size (Gen.int_range 1 8) (Gen.pair (Gen.int_bound 63) gen_byz_weak))
    (fun msgs ->
      let records = List.map (fun (k, m) -> (k, body_of Wf.byz_weak m)) msgs in
      let s = B.encode ~inner_codec_id:Wf.byz_weak.W.id ~sender:1 records in
      match W.decode_frame_view s ~pos:0 with
      | Error e -> Test.fail_reportf "frame view: %s" (W.error_to_string e)
      | Ok (v, _) ->
        let got = ref [] in
        (match
           B.iter_view v ~record:(fun ~instance g ->
               let m = Wf.byz_weak.W.dec g in
               W.Get.expect_end g;
               got := (instance, m) :: !got)
         with
        | Error e -> Test.fail_reportf "iter_view: %s" (W.error_to_string e)
        | Ok (_, _) ->
          List.iter2
            (fun (k, m) (k', m') ->
              if k <> k' then Test.fail_report "instance id mangled";
              if not (String.equal (body_of Wf.byz_weak m) (body_of Wf.byz_weak m')) then
                Test.fail_report "record decoded to a different message")
            msgs (List.rev !got));
        true)

let prop_batch_truncation =
  Test.make ~count:100 ~name:"batch frame prefixes are Truncated, never an exception"
    gen_records
    (fun records ->
      let s = B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender:0 records in
      for len = 0 to String.length s - 1 do
        match B.decode (String.sub s 0 len) with
        | Ok _ -> Test.fail_reportf "prefix of %d/%d bytes decoded" len (String.length s)
        | Error (W.Truncated _) -> ()
        | Error e ->
          Test.fail_reportf "prefix of %d bytes: unexpected %s" len (W.error_to_string e)
      done;
      true)

let sample_batch () =
  B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender:2
    [ (0, body_of Wf.byz_strong (Byz_strong.Committed Value.V0));
      (7, body_of Wf.byz_strong (Byz_strong.Committed Value.V1)) ]

let test_batch_crc_flip () =
  let s = sample_batch () in
  (* a flip anywhere in the body (including a record) dies on the outer CRC
     before any record is touched *)
  List.iter
    (fun pos ->
      let s' = patch s pos (Char.chr (Char.code s.[pos] lxor 0x20)) in
      match B.decode s' with
      | Error (W.Bad_crc _) -> ()
      | Error e -> Alcotest.failf "flip at %d: expected Bad_crc, got %s" pos (W.error_to_string e)
      | Ok _ -> Alcotest.failf "flip at %d went undetected" pos)
    [ 10; W.header_bytes; W.header_bytes + 2; String.length s - 1 ]

(* Hand-build a batch body (version, inner id, count, then raw record
   region) and frame it under a valid CRC - structural violations past the
   outer framing. *)
let raw_batch ?(version = B.batch_version) ?(inner = Wf.byz_strong.W.id) ~count region =
  let buf = Buffer.create 32 in
  W.Put.u8 buf version;
  W.Put.u8 buf inner;
  W.Put.varint buf count;
  Buffer.add_string buf region;
  W.encode_raw ~codec_id:B.codec_id ~sender:0 (Buffer.contents buf)

let record ~instance body =
  let buf = Buffer.create 16 in
  B.add_record buf ~instance body;
  Buffer.contents buf

let check_malformed what s =
  (match B.decode s with
  | Error (W.Malformed_body _) -> ()
  | Error e -> Alcotest.failf "%s: expected Malformed_body, got %s" what (W.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" what);
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "%s: outer frame rejected: %s" what (W.error_to_string e)
  | Ok (v, _) -> (
    match iter_view_records v with
    | Error (W.Malformed_body _) -> ()
    | Error e ->
      Alcotest.failf "%s: iter_view expected Malformed_body, got %s" what (W.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: iter_view accepted" what)

let test_batch_empty () = check_malformed "empty batch (count=0)" (raw_batch ~count:0 "")

let test_batch_future_version () =
  check_malformed "future batch version"
    (raw_batch ~version:(B.batch_version + 1) ~count:1 (record ~instance:0 "x"))

let test_batch_nested () =
  check_malformed "nested batch inner id"
    (raw_batch ~inner:B.codec_id ~count:1 (record ~instance:0 "x"));
  (* the builder refuses to construct one, and rejects empty batches *)
  (match B.make_body_into (Buffer.create 8) ~inner_codec_id:B.codec_id ~count:1 (Buffer.create 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "make_body_into accepted a nested batch id");
  match B.make_body_into (Buffer.create 8) ~inner_codec_id:Wf.byz_strong.W.id ~count:0 (Buffer.create 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "make_body_into accepted count=0"

let test_batch_inflated_count () =
  check_malformed "count exceeds records"
    (raw_batch ~count:3 (record ~instance:0 "a" ^ record ~instance:1 "b"))

let test_batch_record_overrun () =
  (* record claims 200 body bytes, only 3 present *)
  let buf = Buffer.create 16 in
  W.Put.varint buf 5;
  W.Put.varint buf 200;
  Buffer.add_string buf "abc";
  check_malformed "record overruns body" (raw_batch ~count:1 (Buffer.contents buf))

let test_batch_trailing () =
  check_malformed "trailing bytes after last record"
    (raw_batch ~count:1 (record ~instance:0 "x" ^ "\x00"))

let test_batch_oversize () =
  let s = sample_batch () in
  match B.decode ~max_body:4 s with
  | Error (W.Oversized _) -> ()
  | Error e -> Alcotest.failf "expected Oversized, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized batch accepted"

let test_batch_wrong_codec () =
  let s = W.encode Wf.byz_strong ~sender:0 (Byz_strong.Committed Value.V0) in
  (match B.decode s with
  | Error (W.Wrong_codec { expected; got }) ->
    Alcotest.(check int) "expected id" B.codec_id expected;
    Alcotest.(check int) "got id" Wf.byz_strong.W.id got
  | Error e -> Alcotest.failf "expected Wrong_codec, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "non-batch frame decoded as batch");
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "outer frame: %s" (W.error_to_string e)
  | Ok (v, _) -> (
    match iter_view_records v with
    | Error (W.Wrong_codec _) -> ()
    | Error e -> Alcotest.failf "iter_view expected Wrong_codec, got %s" (W.error_to_string e)
    | Ok _ -> Alcotest.fail "iter_view accepted a non-batch frame")

(* A [record] callback rejecting its record (as the executor's instance
   range check and codec decode do) surfaces as the batch's own decode
   error - the collect-then-deliver contract. *)
let test_batch_record_callback_rejects () =
  let s = sample_batch () in
  match W.decode_frame_view s ~pos:0 with
  | Error e -> Alcotest.failf "outer frame: %s" (W.error_to_string e)
  | Ok (v, _) -> (
    match
      B.iter_view v ~record:(fun ~instance g ->
          ignore (W.Get.take g (W.Get.remaining g) : string);
          if instance = 7 then raise (W.Get.Malformed "instance out of range"))
    with
    | Error (W.Malformed_body _) -> ()
    | Error e -> Alcotest.failf "expected Malformed_body, got %s" (W.error_to_string e)
    | Ok _ -> Alcotest.fail "rejecting callback did not fail the batch")

let batch_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_batch_roundtrip; prop_batch_protocol_records; prop_batch_truncation ]
  @ [ Alcotest.test_case "CRC flip caught before records" `Quick test_batch_crc_flip;
      Alcotest.test_case "empty batch rejected" `Quick test_batch_empty;
      Alcotest.test_case "future batch version rejected" `Quick test_batch_future_version;
      Alcotest.test_case "nested batch rejected" `Quick test_batch_nested;
      Alcotest.test_case "inflated count rejected" `Quick test_batch_inflated_count;
      Alcotest.test_case "record overrun rejected" `Quick test_batch_record_overrun;
      Alcotest.test_case "trailing record bytes rejected" `Quick test_batch_trailing;
      Alcotest.test_case "oversized batch rejected" `Quick test_batch_oversize;
      Alcotest.test_case "wrong codec id rejected" `Quick test_batch_wrong_codec;
      Alcotest.test_case "record callback rejection fails the batch" `Quick
        test_batch_record_callback_rejects ]

(* ------------------------------------------------------------------ *)
(* Stream reassembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Concatenated frames split at arbitrary chunk boundaries reassemble to
   the same frame sequence.  Each chunk goes through one reused [Bytes.t]
   that is scribbled over right after [feed], as the socket read buffer
   is, so the reader must have copied what it keeps. *)
let prop_reader_chunking =
  Test.make ~count:200 ~name:"Reader reassembly is split-point independent"
    (Gen.pair (Gen.list_size (Gen.int_range 1 8) gen_byz_weak) (Gen.int_range 1 13))
    (fun (msgs, chunk) ->
      let stream =
        String.concat "" (List.mapi (fun i m -> W.encode Wf.byz_weak ~sender:(i mod 4) m) msgs)
      in
      let r = W.Reader.create () in
      let got = ref [] in
      let drain () =
        let rec go () =
          match W.Reader.next r with
          | Ok (Some f) ->
            got := f :: !got;
            go ()
          | Ok None -> ()
          | Error e -> Test.fail_reportf "reader error: %s" (W.error_to_string e)
        in
        go ()
      in
      let read_buf = Bytes.make 16 '\xAA' in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        let at = !pos mod 3 in
        Bytes.blit_string stream !pos read_buf at len;
        W.Reader.feed r read_buf ~pos:at ~len;
        Bytes.fill read_buf 0 (Bytes.length read_buf) '\xAA';
        pos := !pos + len;
        drain ()
      done;
      if W.Reader.buffered r <> 0 then Test.fail_report "bytes left buffered";
      let frames = List.rev !got in
      if List.length frames <> List.length msgs then
        Test.fail_reportf "got %d frames for %d messages" (List.length frames) (List.length msgs);
      List.iteri
        (fun i (f : W.frame) ->
          match W.decode_body Wf.byz_weak f with
          | Error e -> Test.fail_reportf "frame %d body: %s" i (W.error_to_string e)
          | Ok m ->
            if not (String.equal (body_of Wf.byz_weak m) (body_of Wf.byz_weak (List.nth msgs i)))
            then Test.fail_reportf "frame %d decoded to a different message" i)
        frames;
      true)

(* A view handed out by [next_view] aliases the reader's snapshot; later
   feeds and refills must never change its bytes.  Bodies of up to 3 kB
   make the stream outgrow any one chunk, so snapshots are replaced many
   times while earlier views are still held. *)
let prop_reader_views_stable =
  Test.make ~count:200 ~name:"Reader views stay byte-identical after later feeds"
    (Gen.pair
       (Gen.list_size (Gen.int_range 1 12) (Gen.string_size ~gen:Gen.char (Gen.int_range 0 3000)))
       (Gen.int_range 1 5000))
    (fun (bodies, chunk) ->
      let stream =
        String.concat ""
          (List.mapi (fun i body -> W.encode_raw ~codec_id:(i mod 7) ~sender:i body) bodies)
      in
      let r = W.Reader.create () in
      let views = ref [] in
      let rec drain () =
        match W.Reader.next_view r with
        | Ok (Some v) ->
          views := (v, W.view_body v) :: !views;
          drain ()
        | Ok None -> ()
        | Error e -> Test.fail_reportf "reader error: %s" (W.error_to_string e)
      in
      let read_buf = Bytes.create chunk in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        Bytes.blit_string stream !pos read_buf 0 len;
        W.Reader.feed r read_buf ~pos:0 ~len;
        Bytes.fill read_buf 0 chunk '\xAA';
        pos := !pos + len;
        drain ()
      done;
      let views = List.rev !views in
      if List.length views <> List.length bodies then
        Test.fail_reportf "got %d views for %d frames" (List.length views) (List.length bodies);
      List.iteri
        (fun i ((v, at_return), body) ->
          if not (String.equal (W.view_body v) at_return) then
            Test.fail_reportf "view %d changed after later feeds" i;
          if not (String.equal at_return body) then Test.fail_reportf "view %d has the wrong body" i;
          if v.W.v_sender <> i || v.W.v_codec_id <> i mod 7 then
            Test.fail_reportf "view %d has the wrong header" i)
        (List.combine views bodies);
      true)

let test_reader_poisoned () =
  let good = W.encode Wf.byz_strong ~sender:1 (Byz_strong.Committed Value.V0) in
  let bad = patch good 12 (Char.chr (Char.code good.[12] lxor 1)) in
  let r = W.Reader.create () in
  W.Reader.feed r (Bytes.of_string bad) ~pos:0 ~len:(String.length bad);
  (match W.Reader.next r with
  | Error (W.Bad_crc _) -> ()
  | Error e -> Alcotest.failf "expected Bad_crc, got %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt frame extracted");
  (* sticky: even after feeding a pristine frame the reader stays dead *)
  W.Reader.feed r (Bytes.of_string good) ~pos:0 ~len:(String.length good);
  match W.Reader.next r with
  | Error (_ : W.error) -> ()
  | Ok _ -> Alcotest.fail "poisoned reader recovered"

(* ------------------------------------------------------------------ *)
(* CRC-32 kernel                                                        *)
(* ------------------------------------------------------------------ *)

(* The bytewise Int32 table loop the slicing-by-8 kernel replaced, kept
   here as the differential reference. *)
let ref_table =
  Array.init 256 (fun i ->
      let c = ref (Int32.of_int i) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let ref_crc32 s ~pos ~len =
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl) in
    c := Int32.logxor ref_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let check_crc what s ~pos ~len =
  let want = ref_crc32 s ~pos ~len and got = W.crc32 s ~pos ~len in
  if not (Int32.equal want got) then
    Alcotest.failf "%s (pos %d, len %d): kernel %08lx, reference %08lx" what pos len got want

let test_crc_known_answer () =
  Alcotest.(check int32) "check value" 0xCBF43926l (W.crc32 "123456789" ~pos:0 ~len:9);
  Alcotest.(check int32) "empty string" 0l (W.crc32 "" ~pos:0 ~len:0);
  Alcotest.(check int32) "empty slice mid-string" 0l (W.crc32 "123456789" ~pos:5 ~len:0);
  Alcotest.(check int32) "slice" (W.crc32 "123456789" ~pos:0 ~len:9)
    (W.crc32 "xx123456789yyy" ~pos:2 ~len:9)

(* Every length 0-64 at every start offset 0-7: each split between the
   eight-byte body and the bytewise tail, at each alignment. *)
let test_crc_tail_and_alignment () =
  let rng = Random.State.make [| 0xC3C |] in
  let s = String.init 80 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      check_crc "exhaustive" s ~pos ~len
    done
  done;
  check_crc "all-ones" (String.make 64 '\xFF') ~pos:0 ~len:64

let prop_crc_differential =
  Test.make ~count:300 ~name:"crc32 matches the bytewise reference on random slices"
    Gen.(
      string_size ~gen:(char_range '\x00' '\xff') (int_bound 4096) >>= fun s ->
      let n = String.length s in
      int_bound n >>= fun pos ->
      int_bound (n - pos) >|= fun len -> (s, pos, len))
    (fun (s, pos, len) ->
      Int32.equal (W.crc32 s ~pos ~len) (ref_crc32 s ~pos ~len))

let test_crc_bounds () =
  List.iter
    (fun (pos, len) ->
      match W.crc32 "abcd" ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slice (pos %d, len %d) of 4 bytes accepted" pos len)
    [ (-1, 1); (0, 5); (3, 2); (0, -1); (5, 0) ]

let crc_tests =
  [ Alcotest.test_case "known answer and empty slice" `Quick test_crc_known_answer;
    Alcotest.test_case "every tail length at every alignment" `Quick test_crc_tail_and_alignment;
    QCheck_alcotest.to_alcotest prop_crc_differential;
    Alcotest.test_case "out-of-range slices rejected" `Quick test_crc_bounds ]

(* ------------------------------------------------------------------ *)
(* Golden frames                                                        *)
(* ------------------------------------------------------------------ *)

(* Exact on-wire bytes, captured before the encoders were rewritten to
   seal frames in one copy: any drift in framing, header patching or the
   CRC shows up here as a hex diff. *)

module Transport = Bca_transport.Transport
module Batcher = Bca_transport.Batcher
module Wal = Bca_recovery.Wal

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let golden_m1 = Byz_strong.Bca (300, Bca_core.Bca_byz.MEcho3 (Types.Val Value.V1))
let golden_m2 = Byz_strong.Committed Value.V0
let golden_encode = "bca101030002000000043fabd75803ac0202"
let golden_encode_buf = "bca1010302010000000241d912ff0000"

let test_golden_encode () =
  Alcotest.(check string) "encode" golden_encode (hex (W.encode Wf.byz_strong ~sender:2 golden_m1));
  Alcotest.(check string) "encode_buf" golden_encode_buf
    (hex (W.encode_buf Wf.byz_strong ~sender:513 ~scratch:(Buffer.create 8) golden_m2));
  Alcotest.(check string) "encode_raw"
    "bca10107000100000012cc5b09817365616c656420696e206f6e6520636f7079"
    (hex (W.encode_raw ~codec_id:7 ~sender:1 "sealed in one copy"))

(* The sealer hands out a fresh string: reusing the scratch for the next
   frame must not reach back into the previous result. *)
let test_encode_buf_independent () =
  let scratch = Buffer.create 8 in
  let first = W.encode_buf Wf.byz_strong ~sender:2 ~scratch golden_m1 in
  let second = W.encode_buf Wf.byz_strong ~sender:513 ~scratch golden_m2 in
  Alcotest.(check string) "first frame unchanged" golden_encode (hex first);
  Alcotest.(check string) "second frame" golden_encode_buf (hex second);
  match W.seal_frame (Buffer.create 4) ~codec_id:7 ~sender:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sealed a buffer with no header slot"

let test_golden_batch () =
  let sent = ref [] in
  let net =
    { Transport.me = 1;
      n = 3;
      kind = "capture";
      send = (fun ~dst s -> sent := (dst, s) :: !sent);
      recv = (fun ~timeout_s:_ -> None);
      recv_view = (fun ~timeout_s:_ -> None);
      flush = (fun ~timeout_s:_ -> true);
      close = (fun () -> ());
      reset = (fun ~dst:_ -> ());
      stats = Transport.stats_zero () }
  in
  let bat = Batcher.create ~inner_codec_id:Wf.byz_strong.W.id net in
  Batcher.send bat ~dst:2 ~instance:0 ~enc:(fun b -> Wf.byz_strong.W.enc b golden_m1);
  Batcher.send bat ~dst:2 ~instance:130 ~enc:(fun b -> Wf.byz_strong.W.enc b golden_m2);
  Batcher.flush bat;
  match !sent with
  | [ (2, s) ] ->
    Alcotest.(check string) "batch frame" "bca101b700010000000e7a88e447010302000403ac02028201020000"
      (hex s);
    Alcotest.(check string) "Batch.encode agrees" (hex s)
      (hex
         (B.encode ~inner_codec_id:Wf.byz_strong.W.id ~sender:1
            [ (0, body_of Wf.byz_strong golden_m1); (130, body_of Wf.byz_strong golden_m2) ]))
  | l -> Alcotest.failf "expected one batch frame to pid 2, got %d sends" (List.length l)

let test_golden_wal () =
  let b = Buffer.create 64 in
  Wal.encode_record b (Wal.Sent { dst = 3; frame = W.encode Wf.byz_strong ~sender:2 golden_m1 });
  Alcotest.(check string) "wal record" ("030000001329f37f0703" ^ golden_encode) (hex (Buffer.contents b))

(* Exact body bytes of one message per constructor of each AA codec,
   captured before the codecs shared one AA framing; plus the decode
   error of each codec's bad bodies, so the shared framing keeps every
   rejection message. *)

let r = 300

let share = Threshold.share_unsafe_of_repr ~signer:2 ~tag:"aba/3" ~mac:0x0123456789abcdefL

let cert = Threshold.signature_unsafe_of_repr ~tag:"aba/3:v1" ~k:3 ~cert:(-42L)

let golden_bodies =
  [ ( "crash-strong",
      List.map (body_of Wf.crash_strong)
        [ Crash_strong.Committed Value.V1;
          Crash_strong.Bca (r, Bca_core.Bca_crash.MVal Value.V0);
          Crash_strong.Bca (r, Bca_core.Bca_crash.MEcho Types.Bot) ],
      [ "0001"; "01ac0200"; "02ac0200" ] );
    ( "crash-weak",
      List.map (body_of Wf.crash_weak)
        [ Crash_weak.Committed Value.V0;
          Crash_weak.Bca (r, Bca_core.Gbca_crash.MVal Value.V1);
          Crash_weak.Bca (r, Bca_core.Gbca_crash.MEcho (Types.Val Value.V0));
          Crash_weak.Bca (r, Bca_core.Gbca_crash.MEcho2 (Types.Val Value.V1)) ],
      [ "0000"; "01ac0201"; "02ac0201"; "03ac0202" ] );
    ( "byz-strong",
      List.map (body_of Wf.byz_strong)
        [ Byz_strong.Committed Value.V1;
          Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho Value.V0);
          Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho2 Value.V1);
          Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho3 (Types.Val Value.V1)) ],
      [ "0001"; "01ac0200"; "02ac0201"; "03ac0202" ] );
    ( "byz-weak",
      List.map (body_of Wf.byz_weak)
        [ Byz_weak.Committed Value.V0;
          Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho Value.V1);
          Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho2 Value.V0);
          Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho3 Types.Bot);
          Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho4 (Types.Val Value.V0));
          Byz_weak.Bca (r, Bca_core.Gbca_byz.MEcho5 (Types.Val Value.V1)) ],
      [ "0000"; "01ac0201"; "02ac0200"; "03ac0200"; "04ac0201"; "05ac0202" ] );
    ( "byz-tsig",
      List.map (body_of Wf.byz_tsig)
        [ Byz_tsig.Committed Value.V1;
          Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho (Value.V0, share));
          Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho2 (Value.V1, cert));
          Byz_tsig.Bca
            (r, Bca_core.Bca_tsig.MEcho3 (Types.Val Value.V1, [ cert; cert ], Some share));
          Byz_tsig.Bca (r, Bca_core.Bca_tsig.MEcho3 (Types.Bot, [], None)) ],
      [ "0001";
        "01ac020002056162612f330123456789abcdef";
        "02ac0201086162612f333a763103ffffffffffffffd6";
        "03ac020202086162612f333a763103ffffffffffffffd6086162612f333a763103ffffffffffffffd601"
        ^ "02056162612f330123456789abcdef";
        "03ac02000000" ] ) ]

let test_golden_bodies () =
  List.iter
    (fun (name, bodies, expected) ->
      Alcotest.(check (list string)) name expected (List.map hex bodies))
    golden_bodies

(* Bad bodies: unknown tags with and without a round after them, each
   codec's first tag past its range, and known tags cut off before their
   round or fields.  Bodies a codec accepts read "ok". *)
let unknown_tag name tag = Printf.sprintf "malformed body: unknown %s tag %d" name tag

let truncated = "malformed body: truncated (u8)"

(* Expected errors for [bad] below; [tag3]/[tag4] differ per codec. *)
let rejections name ~tag3 ~tag4 =
  [ unknown_tag name 7; unknown_tag name 7; unknown_tag name 255; tag3; tag4; unknown_tag name 6;
    truncated; truncated; truncated; "malformed body: invalid value byte 2" ]

let golden_rejections =
  let bad =
    [ "\x07"; "\x07\x01\x00"; "\xff"; "\x03\x01\x01"; "\x04\x01\x00"; "\x06\x01\x00"; "\x01";
      "\x01\x05"; "\x00"; "\x00\x02" ]
  in
  let errors codec =
    List.map
      (fun body ->
        match W.decode_body codec { W.codec_id = codec.W.id; sender = 0; body } with
        | Ok _ -> "ok"
        | Error e -> W.error_to_string e)
      bad
  in
  [ ( "crash-strong",
      errors Wf.crash_strong,
      rejections "crash-strong" ~tag3:(unknown_tag "crash-strong" 3)
        ~tag4:(unknown_tag "crash-strong" 4) );
    ( "crash-weak",
      errors Wf.crash_weak,
      rejections "crash-weak" ~tag3:"ok" ~tag4:(unknown_tag "crash-weak" 4) );
    ( "byz-strong",
      errors Wf.byz_strong,
      rejections "byz-strong" ~tag3:"ok" ~tag4:(unknown_tag "byz-strong" 4) );
    ("byz-weak", errors Wf.byz_weak, rejections "byz-weak" ~tag3:"ok" ~tag4:"ok");
    ("byz-tsig", errors Wf.byz_tsig, rejections "byz-tsig" ~tag3:truncated ~tag4:(unknown_tag "byz-tsig" 4)) ]

let test_golden_rejections () =
  List.iter
    (fun (name, actual, expected) -> Alcotest.(check (list string)) name expected actual)
    golden_rejections

(* The replicated log's codec (id 7): one body per path - each Bracha
   step and a nested byz-strong slot body - and the rejection of an
   unknown rsm tag, an unknown bracha tag, and a digest one byte short or
   one byte long (digests are a fixed 32 bytes, read with [Get.take]). *)
module Rsm = Bca_rsm.Rsm
module Acs = Bca_rsm.Acs
module Bracha = Bca_baselines.Bracha

let rsm_codec = Bca_rsm.Wirefmt.rsm

let tx_digest = Bca_crypto.Sha256.digest "tx"

let test_golden_rsm () =
  Alcotest.(check (list string)) "rsm bodies"
    [ "00010101027478";
      "ac020103021b5b9ccb3e8d006a5230de9bda23ff91edc794d4f56410560830b418528e446c";
      "05018201031b5b9ccb3e8d006a5230de9bda23ff91edc794d4f56410560830b418528e446c";
      "070102041b5b9ccb3e8d006a5230de9bda23ff91edc794d4f56410560830b418528e446c";
      "01010005027478";
      "02020103ac0202" ]
    (List.map hex
       (List.map (body_of rsm_codec)
          [ Rsm.Epoch (0, Acs.Rbc (1, Bracha.Initial "tx"));
            Rsm.Epoch (300, Acs.Rbc (3, Bracha.Echo tx_digest));
            Rsm.Epoch (5, Acs.Rbc (130, Bracha.Ready tx_digest));
            Rsm.Epoch (7, Acs.Rbc (2, Bracha.Fetch tx_digest));
            Rsm.Epoch (1, Acs.Rbc (0, Bracha.Payload "tx"));
            Rsm.Epoch (2, Acs.Aba (1, Byz_strong.Bca (r, Bca_core.Bca_byz.MEcho3 (Types.Val Value.V1)))) ]));
  Alcotest.(check (list string)) "rsm rejections"
    [ unknown_tag "rsm" 3;
      unknown_tag "bracha" 6;
      "malformed body: take exceeds input";
      "malformed body: 1 trailing body bytes" ]
    (List.map
       (fun body ->
         match W.decode_body rsm_codec { W.codec_id = rsm_codec.W.id; sender = 0; body } with
         | Ok _ -> "ok"
         | Error e -> W.error_to_string e)
       [ "\x00\x03\x01";
         "\x00\x01\x01\x06\x00";
         "\x00\x01\x01\x02" ^ String.make 31 'd';
         "\x00\x01\x01\x02" ^ String.make 33 'd' ])

let golden_tests =
  [ Alcotest.test_case "encode, encode_buf, encode_raw bytes" `Quick test_golden_encode;
    Alcotest.test_case "encode_buf results independent of scratch" `Quick test_encode_buf_independent;
    Alcotest.test_case "batcher batch frame bytes" `Quick test_golden_batch;
    Alcotest.test_case "wal record bytes" `Quick test_golden_wal;
    Alcotest.test_case "AA codec body bytes" `Quick test_golden_bodies;
    Alcotest.test_case "AA codec rejections" `Quick test_golden_rejections;
    Alcotest.test_case "rsm codec bytes and rejections" `Quick test_golden_rsm ]

let test_codec_ids_distinct () =
  let ids =
    List.map
      (fun (name, id) -> ignore name; id)
      [ ("crash-strong", Wf.crash_strong.W.id); ("crash-weak", Wf.crash_weak.W.id);
        ("byz-strong", Wf.byz_strong.W.id); ("byz-weak", Wf.byz_weak.W.id);
        ("byz-tsig", Wf.byz_tsig.W.id); ("coin-share", Wf.coin_share.W.id);
        ("rsm", Bca_rsm.Wirefmt.rsm.W.id) ]
  in
  Alcotest.(check int) "all codec ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun name ->
      match Wf.codec_id_of_spec_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "no codec id for %s" name)
    [ "crash-strong"; "crash-weak"; "crash-local"; "byz-strong"; "byz-weak"; "byz-tsig" ]

let () =
  Alcotest.run "wire"
    [ ("roundtrip", List.map QCheck_alcotest.to_alcotest roundtrips);
      ( "adversarial",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_bytes_never_raise; prop_single_byte_flip; prop_truncation ]
        @ [ Alcotest.test_case "flipped CRC" `Quick test_flipped_crc;
            Alcotest.test_case "future version" `Quick test_future_version;
            Alcotest.test_case "bad magic" `Quick test_bad_magic;
            Alcotest.test_case "wrong codec id" `Quick test_wrong_codec;
            Alcotest.test_case "oversized length" `Quick test_oversized;
            Alcotest.test_case "varint overflow (string len)" `Quick test_varint_overflow_string_len;
            Alcotest.test_case "varint overflow (list count)" `Quick test_varint_overflow_list_count;
            Alcotest.test_case "varint max_int round-trip" `Quick test_varint_max_int;
            Alcotest.test_case "trailing body bytes" `Quick test_trailing_body_bytes ] );
      ("batch", batch_tests);
      ( "reader",
        List.map QCheck_alcotest.to_alcotest [ prop_reader_chunking; prop_reader_views_stable ]
        @ [ Alcotest.test_case "poisoned reader stays poisoned" `Quick test_reader_poisoned;
            Alcotest.test_case "codec ids distinct" `Quick test_codec_ids_distinct ] );
      ("crc", crc_tests);
      ("golden", golden_tests) ]
