(** Batch frames: many protocol messages under one header and CRC.

    The multi-instance cluster executor runs B concurrent ABA instances per
    party over one socket pair.  Shipping each EST/AUX vote or coin share
    as its own frame costs a 14-byte header, a CRC pass and a write per
    message; a batch frame amortizes all three across every record that is
    ready when the flush policy fires ([Bca_transport.Batcher]).

    A batch is an ordinary version-1 {!Wire} frame whose codec id is
    {!codec_id} and whose body is:

    {v
    offset  size    field
    0       1       batch version (currently 1)
    1       1       inner codec id (the stack codec every record decodes with)
    2       varint  record count (>= 1; an empty batch is malformed)
    ...     repeat  record: varint instance id, varint body length, body bytes
    v}

    Decoding is strict, matching the rest of the wire layer: unknown batch
    version, a nested batch inner id, zero records, an inflated count, a
    record overrunning the body, or trailing bytes are all typed errors -
    and the whole frame still travels under the outer CRC, so corruption is
    caught before any record is touched.  {!iter_view} decodes records in
    place from a {!Wire.view} (no per-record substring). *)

val codec_id : int
(** The frame codec id marking a batch (0xB7, disjoint from the per-stack
    ids in [Bca_core.Wirefmt]). *)

val batch_version : int

(** {1 Building} *)

val add_record : Buffer.t -> instance:int -> string -> unit
(** Append one record (varint instance, varint length, bytes) to a record
    region under construction. *)

val add_record_buf : Buffer.t -> instance:int -> Buffer.t -> unit
(** {!add_record} from a staging buffer - the batcher's path: the message
    body never exists as a string. *)

val make_body_into : Buffer.t -> inner_codec_id:int -> count:int -> Buffer.t -> unit
(** Assemble a batch body (version, inner id, count, records) into [out]
    from a record region built with {!add_record}/{!add_record_buf}.
    Raises [Invalid_argument] on [count < 1] or an inner id that is out of
    range or {!codec_id} itself (builder bugs, not input conditions). *)

val encode : inner_codec_id:int -> sender:int -> (int * string) list -> string
(** A complete batch frame from (instance, body) pairs - the convenience
    the tests and small callers use. *)

(** {1 Decoding} *)

val iter_view :
  Wire.view ->
  record:(instance:int -> Wire.Get.t -> unit) ->
  (int * int, Wire.error) result
(** Walk a batch frame in place.  [record] receives each instance id and a
    cursor bounded to exactly that record's body ({!Wire.Get.sub} - no
    copy); on success returns [(inner_codec_id, count)].  Any structural
    violation - including one raised as [Wire.Get.Malformed] by [record]
    itself - yields [Error (Malformed_body _)]; a non-batch codec id yields
    [Wrong_codec].  Callers that must not act on a partially-valid batch
    should collect during iteration and apply only after [Ok]. *)

type decoded = {
  sender : int;
  inner_codec_id : int;
  records : (int * string) list;
}

val decode : ?max_body:int -> string -> (decoded, Wire.error) result
(** Decode a whole string as exactly one batch frame, copying record bodies
    out - the test/tooling convenience; hot paths use {!iter_view}. *)
