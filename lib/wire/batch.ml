let codec_id = 0xB7

let batch_version = 1

let add_record buf ~instance body =
  if instance < 0 then invalid_arg "Batch.add_record: negative instance";
  Wire.Put.varint buf instance;
  Wire.Put.varint buf (String.length body);
  Buffer.add_string buf body

let add_record_buf buf ~instance body =
  if instance < 0 then invalid_arg "Batch.add_record_buf: negative instance";
  Wire.Put.varint buf instance;
  Wire.Put.varint buf (Buffer.length body);
  Buffer.add_buffer buf body

let check_inner inner_codec_id =
  if not (Bca_util.Bounds.fits ~max:0xFF inner_codec_id) then
    invalid_arg "Batch: inner codec id out of range";
  if inner_codec_id = codec_id then invalid_arg "Batch: nested batch codec id"

let make_body_into out ~inner_codec_id ~count records =
  check_inner inner_codec_id;
  if count < 1 then invalid_arg "Batch.make_body_into: empty batch";
  Wire.Put.u8 out batch_version;
  Wire.Put.u8 out inner_codec_id;
  Wire.Put.varint out count;
  Buffer.add_buffer out records

let encode ~inner_codec_id ~sender records =
  let rb = Buffer.create 64 in
  List.iter (fun (instance, body) -> add_record rb ~instance body) records;
  let out = Buffer.create (Wire.header_bytes + 4 + Buffer.length rb) in
  Wire.open_frame out;
  make_body_into out ~inner_codec_id ~count:(List.length records) rb;
  Wire.seal_frame out ~codec_id ~sender

let iter_view (v : Wire.view) ~record =
  if v.Wire.v_codec_id <> codec_id then
    Error (Wire.Wrong_codec { expected = codec_id; got = v.Wire.v_codec_id })
  else
    let g = Wire.cursor_of_view v in
    match
      let ver = Wire.Get.u8 g in
      if ver <> batch_version then
        raise (Wire.Get.Malformed (Printf.sprintf "unsupported batch version %d" ver));
      let inner = Wire.Get.u8 g in
      if inner = codec_id then raise (Wire.Get.Malformed "nested batch");
      let count = Wire.Get.varint g in
      if count < 1 then raise (Wire.Get.Malformed "empty batch");
      (* every record costs at least two bytes (instance + length varints),
         so an inflated count is rejected up front instead of at the first
         truncated record *)
      if count > Wire.Get.remaining g / 2 + 1 then
        raise (Wire.Get.Malformed "record count exceeds body");
      for _ = 1 to count do
        let instance = Wire.Get.varint g in
        let len = Wire.Get.varint g in
        if len > Wire.Get.remaining g then
          raise (Wire.Get.Malformed "record length exceeds batch body");
        record ~instance (Wire.Get.sub g len)
      done;
      Wire.Get.expect_end g;
      (inner, count)
    with
    | r -> Ok r
    | exception Wire.Get.Malformed msg -> Error (Wire.Malformed_body msg)

type decoded = {
  sender : int;
  inner_codec_id : int;
  records : (int * string) list;
}

let decode ?max_body s =
  match Wire.decode_frame_view ?max_body s ~pos:0 with
  | Error _ as e -> e
  | Ok (v, consumed) ->
    if consumed <> String.length s then
      Error
        (Wire.Malformed_body (Printf.sprintf "%d trailing frame bytes" (String.length s - consumed)))
    else
      let acc = ref [] in
      (match
         iter_view v ~record:(fun ~instance g ->
             acc := (instance, Wire.Get.take g (Wire.Get.remaining g)) :: !acc)
       with
      | Error _ as e -> e
      | Ok (inner, _count) ->
        Ok { sender = v.Wire.v_sender; inner_codec_id = inner; records = List.rev !acc })
