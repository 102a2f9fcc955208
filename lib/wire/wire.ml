module Value = Bca_util.Value

let version = 1

let header_bytes = 14

let default_max_body = 1 lsl 20

let max_sender = 0xFFFF

let magic0 = '\xBC'

let magic1 = '\xA1'

(* ---- CRC-32 (IEEE 802.3, reflected) -------------------------------- *)

(* Slicing-by-8: [crc_table] holds eight 256-entry tables back to back,
   as native ints in [0, 2^32).  Entry [k*256 + b] is the CRC register
   after byte [b] followed by [k] zero bytes, so eight table lookups fold
   eight input bytes at once.  Row 0 is the classic bytewise table. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

(* CRC of [b.[pos .. pos+len-1]]; the caller has checked the slice.  Reads
   [Bytes] so the frame sealer can hash a body inside the buffer it is
   about to patch; [crc32] lends its string read-only. *)
let crc_bytes b ~pos ~len =
  let t = crc_table in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  let stop = pos + len in
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s ~pos ~len =
  if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length s)) then
    invalid_arg "Wire.crc32: slice out of bounds";
  crc_bytes (Bytes.unsafe_of_string s) ~pos ~len

(* ---- body primitives ----------------------------------------------- *)

module Put = struct
  let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let u16 buf v =
    u8 buf (v lsr 8);
    u8 buf v

  let u32 buf v =
    u8 buf (v lsr 24);
    u8 buf (v lsr 16);
    u8 buf (v lsr 8);
    u8 buf v

  let i64 buf v =
    for shift = 7 downto 0 do
      u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
    done

  let varint buf v =
    if v < 0 then invalid_arg "Wire.Put.varint: negative";
    let rec go v =
      if v < 0x80 then u8 buf v
      else begin
        u8 buf (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  let string buf s =
    varint buf (String.length s);
    Buffer.add_string buf s

  let value buf v = u8 buf (Value.to_int v)
end

module Get = struct
  type t = { src : string; mutable pos : int; limit : int }

  exception Malformed of string

  let fail msg = raise (Malformed msg)

  let create src ~pos ~len =
    if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length src)) then
      invalid_arg "Wire.Get.create: slice out of bounds";
    { src; pos; limit = pos + len }

  let remaining t = t.limit - t.pos

  let u8 t =
    if t.pos >= t.limit then fail "truncated (u8)";
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    (a lsl 16) lor b

  let i64 t =
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 t))
    done;
    !v

  let varint t =
    let rec go shift acc =
      if shift > 56 then fail "varint too long"
      else
        let b = u8 t in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        (* bit 62 of the payload is OCaml's int sign bit: a 9-byte encoding
           with 0x40 set in the last byte would wrap negative and sail
           through downstream [len > remaining]-style guards *)
        if acc < 0 then fail "varint overflows 63-bit int"
        else if b land 0x80 = 0 then acc
        else go (shift + 7) acc
    in
    go 0 0

  let string t =
    let len = varint t in
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "string length exceeds body";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let value t =
    match u8 t with
    | 0 -> Value.V0
    | 1 -> Value.V1
    | v -> fail (Printf.sprintf "invalid value byte %d" v)

  let sub t len =
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "sub-cursor exceeds input";
    let s = { src = t.src; pos = t.pos; limit = t.pos + len } in
    t.pos <- t.pos + len;
    s

  let take t len =
    if not (Bca_util.Bounds.fits ~max:(remaining t) len) then fail "take exceeds input";
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let expect_end t =
    if t.pos <> t.limit then
      fail (Printf.sprintf "%d trailing body bytes" (t.limit - t.pos))
end

(* ---- codecs and frames --------------------------------------------- *)

type 'm codec = {
  id : int;
  name : string;
  enc : Buffer.t -> 'm -> unit;
  dec : Get.t -> 'm;
}

type frame = { codec_id : int; sender : int; body : string }

type view = {
  v_codec_id : int;
  v_sender : int;
  v_src : string;
  v_pos : int;  (** body offset in [v_src] *)
  v_len : int;  (** body length *)
}

type error =
  | Truncated of { need : int; have : int }
  | Bad_magic
  | Unsupported_version of int
  | Oversized of { len : int; limit : int }
  | Bad_crc of { expected : int32; actual : int32 }
  | Wrong_codec of { expected : int; got : int }
  | Malformed_body of string

let pp_error ppf = function
  | Truncated { need; have } -> Format.fprintf ppf "truncated frame: need %d bytes, have %d" need have
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Unsupported_version v -> Format.fprintf ppf "unsupported wire version %d" v
  | Oversized { len; limit } -> Format.fprintf ppf "oversized body: %d bytes (limit %d)" len limit
  | Bad_crc { expected; actual } ->
    Format.fprintf ppf "CRC mismatch: header says %08lx, body hashes to %08lx" expected actual
  | Wrong_codec { expected; got } ->
    Format.fprintf ppf "wrong codec id: expected %d, got %d" expected got
  | Malformed_body msg -> Format.fprintf ppf "malformed body: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

(* Every encoder lays out the whole frame in one buffer - header slot
   first, then the body - and patches the header into the final [Bytes.t]
   once the body length and CRC are known, so the body is copied once. *)
let set_header b ~codec_id ~sender ~crc =
  if not (Bca_util.Bounds.fits ~max:max_sender sender) then
    invalid_arg "Wire.encode: sender out of range";
  if not (Bca_util.Bounds.fits ~max:0xFF codec_id) then
    invalid_arg "Wire.encode: codec id out of range";
  Bytes.set b 0 magic0;
  Bytes.set b 1 magic1;
  Bytes.set b 2 (Char.chr version);
  Bytes.set b 3 (Char.chr codec_id);
  Bytes.set_uint16_be b 4 sender;
  Bytes.set_int32_be b 6 (Int32.of_int (Bytes.length b - header_bytes));
  Bytes.set_int32_be b 10 crc

let header_slot = String.make header_bytes '\000'

let open_frame buf =
  Buffer.clear buf;
  Buffer.add_string buf header_slot

let seal_frame buf ~codec_id ~sender =
  let len = Buffer.length buf - header_bytes in
  if len < 0 then invalid_arg "Wire.seal_frame: no open frame";
  let b = Buffer.to_bytes buf in
  set_header b ~codec_id ~sender ~crc:(crc_bytes b ~pos:header_bytes ~len);
  Bytes.unsafe_to_string b

let encode_raw ~codec_id ~sender body =
  let len = String.length body in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string body 0 b header_bytes len;
  set_header b ~codec_id ~sender ~crc:(crc32 body ~pos:0 ~len);
  Bytes.unsafe_to_string b

let encode_buf codec ~sender ~scratch m =
  open_frame scratch;
  codec.enc scratch m;
  seal_frame scratch ~codec_id:codec.id ~sender

let encode codec ~sender m = encode_buf codec ~sender ~scratch:(Buffer.create 64) m

(* Header parse shared by the one-shot decoder and the stream reader.
   [have] is how many bytes are available from [pos]; the caller guarantees
   [pos + have <= String.length s].  Returns a zero-copy view: the body
   stays in [s], only offsets travel.  [s] is an immutable string, so views
   remain valid whatever the caller does next. *)
let decode_frame_view ?(max_body = default_max_body) s ~pos =
  let have = String.length s - pos in
  if not (Bca_util.Bounds.fits ~max:(String.length s) pos) then
    invalid_arg "Wire.decode_frame_view: pos out of bounds";
  if have < header_bytes then Error (Truncated { need = header_bytes; have })
  else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then Error Bad_magic
  else
    let byte i = Char.code s.[pos + i] in
    let v = byte 2 in
    if v <> version then Error (Unsupported_version v)
    else
      let codec_id = byte 3 in
      let sender = (byte 4 lsl 8) lor byte 5 in
      let len = (byte 6 lsl 24) lor (byte 7 lsl 16) lor (byte 8 lsl 8) lor byte 9 in
      if len > max_body then Error (Oversized { len; limit = max_body })
      else if have < header_bytes + len then
        Error (Truncated { need = header_bytes + len; have })
      else
        let expected =
          Int32.logor
            (Int32.shift_left (Int32.of_int ((byte 10 lsl 8) lor byte 11)) 16)
            (Int32.of_int ((byte 12 lsl 8) lor byte 13))
        in
        let actual = crc32 s ~pos:(pos + header_bytes) ~len in
        if not (Int32.equal expected actual) then Error (Bad_crc { expected; actual })
        else
          Ok
            ( { v_codec_id = codec_id; v_sender = sender; v_src = s; v_pos = pos + header_bytes; v_len = len },
              header_bytes + len )

(* Views built by [decode_frame_view] are always in range, but the
   type is public - re-validate the window before materialising it. *)
let view_body v =
  let pos = v.v_pos and len = v.v_len in
  if not (Bca_util.Bounds.slice_ok ~pos ~len (String.length v.v_src)) then
    invalid_arg "Wire.view_body: view window out of range";
  String.sub v.v_src pos len

let frame_of_view v = { codec_id = v.v_codec_id; sender = v.v_sender; body = view_body v }

let view_of_frame f =
  { v_codec_id = f.codec_id; v_sender = f.sender; v_src = f.body; v_pos = 0; v_len = String.length f.body }

let view_bytes v = header_bytes + v.v_len

let cursor_of_view v = Get.create v.v_src ~pos:v.v_pos ~len:v.v_len

let decode_frame ?max_body s ~pos =
  match decode_frame_view ?max_body s ~pos with
  | Error _ as e -> e
  | Ok (v, consumed) -> Ok (frame_of_view v, consumed)

let decode_body codec frame =
  if frame.codec_id <> codec.id then
    Error (Wrong_codec { expected = codec.id; got = frame.codec_id })
  else
    let cur = Get.create frame.body ~pos:0 ~len:(String.length frame.body) in
    match
      let m = codec.dec cur in
      Get.expect_end cur;
      m
    with
    | m -> Ok m
    | exception Get.Malformed msg -> Error (Malformed_body msg)

let decode_body_view codec v =
  if v.v_codec_id <> codec.id then Error (Wrong_codec { expected = codec.id; got = v.v_codec_id })
  else
    let cur = cursor_of_view v in
    match
      let m = codec.dec cur in
      Get.expect_end cur;
      m
    with
    | m -> Ok m
    | exception Get.Malformed msg -> Error (Malformed_body msg)

let decode codec s =
  match decode_frame s ~pos:0 with
  | Error e -> Error e
  | Ok (frame, consumed) ->
    if consumed <> String.length s then
      Error (Malformed_body (Printf.sprintf "%d trailing frame bytes" (String.length s - consumed)))
    else (
      match decode_body codec frame with
      | Ok m -> Ok (m, frame)
      | Error e -> Error e)

let frame_bytes f = header_bytes + String.length f.body

let words_of_bytes b = (b + 7) / 8

let frame_words f = words_of_bytes (frame_bytes f)

(* ---- stream reassembly --------------------------------------------- *)

module Reader = struct
  (* Received bytes are staged in [pending] and moved into [snap], an
     immutable string the returned views alias, only once the frame at
     [off] can be complete ([need] bytes on hand): a refill copies the
     unconsumed tail of [snap] plus [pending] and nothing already
     consumed.  However the stream is chunked, a byte is copied into
     [pending] once and into a snapshot at most three times: at the
     refill after it arrives, when its frame's header completes and when
     its body does. *)
  type t = {
    max_body : int;
    pending : Buffer.t;  (* fed, not yet in [snap] *)
    mutable snap : string;
    mutable off : int;  (* consumed prefix of [snap] *)
    mutable need : int;  (* bytes from [off] the next frame needs to decode *)
    mutable poison : error option;
  }

  let create ?(max_body = default_max_body) () =
    { max_body; pending = Buffer.create 4096; snap = ""; off = 0; need = header_bytes; poison = None }

  let feed t b ~pos ~len =
    if not (Bca_util.Bounds.slice_ok ~pos ~len (Bytes.length b)) then
      invalid_arg "Wire.Reader.feed: slice out of bounds";
    Buffer.add_subbytes t.pending b pos len

  let buffered t = String.length t.snap - t.off + Buffer.length t.pending

  let refill t =
    let tail = String.length t.snap - t.off and fresh = Buffer.length t.pending in
    if fresh > 0 then begin
      let b = Bytes.create (tail + fresh) in
      Bytes.blit_string t.snap t.off b 0 tail;
      Buffer.blit t.pending 0 b tail fresh;
      Buffer.clear t.pending;
      t.snap <- Bytes.unsafe_to_string b;
      t.off <- 0
    end

  (* Fewer than [need] bytes decode to [Truncated] again - the header
     that set [need] is unchanged - so the decode is skipped. *)
  let next_view t =
    match t.poison with
    | Some e -> Error e
    | None ->
      if buffered t < t.need then Ok None
      else begin
        refill t;
        match decode_frame_view ~max_body:t.max_body t.snap ~pos:t.off with
        | Ok (view, consumed) ->
          t.off <- t.off + consumed;
          t.need <- header_bytes;
          Ok (Some view)
        | Error (Truncated { need; _ }) ->
          t.need <- need;
          Ok None
        | Error e ->
          t.poison <- Some e;
          Error e
      end

  let next t =
    match next_view t with
    | Error _ as e -> e
    | Ok None -> Ok None
    | Ok (Some v) -> Ok (Some (frame_of_view v))
end
