(** Versioned, length-prefixed binary wire format for protocol messages.

    Every message that crosses a process boundary travels as one {e frame}:

    {v
    offset  size  field
    0       2     magic 0xBC 0xA1
    2       1     version (currently 1)
    3       1     codec id (which stack's body encoding follows)
    4       2     sender pid, big-endian
    6       4     body length, big-endian
    10      4     CRC-32 (IEEE) of the body, big-endian
    14      len   body (codec-specific, see [Bca_core.Wirefmt])
    v}

    Decoding is strict: truncated input, a bad magic, an unknown version, an
    oversized length, a CRC mismatch, an unknown body tag or trailing body
    bytes all yield a typed {!error} - no decode path raises on arbitrary
    input bytes (fuzzed in [test/test_wire.ml]).  The format is
    self-delimiting, so frames can be concatenated on a byte stream and
    re-split by {!Reader} (the TCP / Unix-socket transports do exactly
    that).

    Word accounting: the paper's message-complexity tables count {e words}
    on the wire.  {!words_of_bytes} converts an on-wire byte count to
    64-bit words (rounding up), which is what the bench report uses for
    Table-1-style word complexity. *)

val version : int
(** Wire-format version emitted by {!encode} (1). *)

val header_bytes : int
(** Fixed frame-header size in bytes (14). *)

val default_max_body : int
(** Default body-size bound enforced by decoders (1 MiB): frames claiming a
    larger body are rejected as {!Oversized} before any allocation. *)

val max_sender : int
(** Largest encodable sender pid (0xFFFF). *)

(** {1 Body primitives}

    Little building blocks the per-stack codecs ([Bca_core.Wirefmt]) are
    written in.  [Put] appends to a [Buffer.t]; [Get] reads from a bounded
    cursor and raises {!Get.Malformed} on any violation - {!decode_body}
    turns that exception into a typed error, so codec code can be written
    straight-line. *)

module Put : sig
  val u8 : Buffer.t -> int -> unit
  val u16 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int64 -> unit

  val varint : Buffer.t -> int -> unit
  (** Unsigned LEB128; the argument must be non-negative. *)

  val string : Buffer.t -> string -> unit
  (** Varint length followed by the raw bytes. *)

  val value : Buffer.t -> Bca_util.Value.t -> unit
  (** One byte, 0 or 1. *)
end

module Get : sig
  type t
  (** A bounded read cursor over a string slice. *)

  exception Malformed of string
  (** Raised by every reader on truncation, range violations, or invalid
      encodings.  Confined to this module: the frame-level decoders catch
      it and return {!error}. *)

  val create : string -> pos:int -> len:int -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64

  val varint : t -> int
  (** Unsigned LEB128, at most 9 bytes; rejects longer encodings and any
      value exceeding [max_int] (which would wrap negative in OCaml's
      63-bit int and defeat length guards downstream).  The result is
      always non-negative. *)

  val string : t -> string
  (** Varint length + bytes; the length must fit the remaining input. *)

  val value : t -> Bca_util.Value.t

  val remaining : t -> int

  val sub : t -> int -> t
  (** [sub t len] is a cursor over the next [len] bytes of [t], advancing
      [t] past them - no copy, both cursors alias the same string.  How the
      batch decoder ({!Batch.iter_view}) bounds each record's body without
      substring allocation. *)

  val take : t -> int -> string
  (** [take t len] copies the next [len] raw bytes and advances - the
      copying counterpart of {!sub}, for callers that keep the bytes. *)

  val expect_end : t -> unit
  (** Raises {!Malformed} unless the cursor consumed its whole slice -
      frames with trailing body bytes are rejected. *)
end

(** {1 Codecs and frames} *)

type 'm codec = {
  id : int;  (** codec id carried in byte 3 of every frame (0..255) *)
  name : string;  (** diagnostic label, e.g. ["byz-strong"] *)
  enc : Buffer.t -> 'm -> unit;  (** append the body encoding *)
  dec : Get.t -> 'm;  (** read one body; may raise {!Get.Malformed} *)
}
(** How one message type maps to frame bodies.  The per-stack instances
    live in [Bca_core.Wirefmt] (core owns the message types); this library
    only defines the contract and the framing around it. *)

type frame = {
  codec_id : int;
  sender : int;
  body : string;
}
(** A decoded frame: header fields plus the verbatim body bytes.  The body
    is decoded separately ({!decode_body}) so transports can route frames
    without knowing the message type. *)

type view = {
  v_codec_id : int;
  v_sender : int;
  v_src : string;  (** the buffer the frame was decoded from *)
  v_pos : int;  (** body offset in [v_src] *)
  v_len : int;  (** body length in bytes *)
}
(** A zero-copy frame: header fields plus the body's {e location} in the
    source buffer, instead of a substring copy.  Valid forever - [v_src] is
    an immutable string - so the hot receive path ({!Reader.next_view},
    [Bca_transport]) hands views around and decodes bodies in place with
    {!cursor_of_view}; {!frame_of_view} materializes a {!frame} when the
    copy is wanted. *)

type error =
  | Truncated of { need : int; have : int }
      (** fewer bytes than a complete header + body *)
  | Bad_magic
  | Unsupported_version of int
  | Oversized of { len : int; limit : int }
  | Bad_crc of { expected : int32; actual : int32 }
  | Wrong_codec of { expected : int; got : int }
      (** the frame's codec id is not the one this endpoint speaks *)
  | Malformed_body of string
      (** unknown tag, bad varint, trailing bytes, out-of-range field ... *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val crc32 : string -> pos:int -> len:int -> int32
(** CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of a slice.
    Slicing-by-8: eight bytes per step through one flat 8x256 table. *)

val encode : 'm codec -> sender:int -> 'm -> string
(** One complete frame.  Raises [Invalid_argument] if [sender] is outside
    [0..max_sender] (an encoder bug, not an input condition). *)

val encode_buf : 'm codec -> sender:int -> scratch:Buffer.t -> 'm -> string
(** {!encode} staging the frame in a caller-owned [scratch] buffer (cleared
    first) instead of allocating a fresh one per message - the pooled
    encode of the transport hot path.  Same bytes as {!encode}; the result
    is a fresh string, independent of later uses of [scratch]. *)

val encode_raw : codec_id:int -> sender:int -> string -> string
(** Frame an already-encoded body - used by tests to build adversarial
    frames with arbitrary contents, and by the control plane. *)

val open_frame : Buffer.t -> unit
(** Clear the buffer and reserve a {!header_bytes} header slot; append the
    body after it, then {!seal_frame}.  How the batcher frames a batch body
    in place. *)

val seal_frame : Buffer.t -> codec_id:int -> sender:int -> string
(** The frame opened by {!open_frame}: one copy of the buffer, with the
    header (length and CRC of everything after the slot) patched in place.
    Same bytes as {!encode_raw} of the body.  Raises [Invalid_argument] if
    the buffer is shorter than a header, or on a bad [sender]/[codec_id]. *)

val decode_frame : ?max_body:int -> string -> pos:int -> (frame * int, error) result
(** Parse one frame starting at [pos]; on success also returns the number
    of bytes consumed, so consecutive frames can be peeled off a buffer.
    Never raises, whatever the input bytes. *)

val decode_frame_view : ?max_body:int -> string -> pos:int -> (view * int, error) result
(** {!decode_frame} without the body copy: header checks (magic, version,
    bound, CRC) are identical, but the body stays in place as a {!view}. *)

val view_body : view -> string
(** Copy the body bytes out of a view. *)

val frame_of_view : view -> frame

val view_of_frame : frame -> view
(** A view aliasing the frame's own body string (offset 0). *)

val view_bytes : view -> int
(** Total on-wire size of the viewed frame (header + body). *)

val cursor_of_view : view -> Get.t
(** A bounded read cursor over the body, in place. *)

val decode_body : 'm codec -> frame -> ('m, error) result
(** Decode a frame's body with [codec], checking the codec id first.
    Strict: trailing bytes are an error.  Never raises. *)

val decode_body_view : 'm codec -> view -> ('m, error) result
(** {!decode_body} straight off a view - no substring allocation. *)

val decode : 'm codec -> string -> ('m * frame, error) result
(** [decode_frame] + [decode_body] over a whole string: the string must
    contain exactly one frame. *)

val frame_bytes : frame -> int
(** Total on-wire size of the frame (header + body). *)

val words_of_bytes : int -> int
(** Bytes to 64-bit words, rounding up - the unit of the paper's
    message-complexity accounting. *)

val frame_words : frame -> int
(** [words_of_bytes (frame_bytes f)]. *)

(** {1 Stream reassembly} *)

module Reader : sig
  (** Incremental frame extraction from a byte stream.  Feed arbitrary
      chunks in; {!next} yields complete frames as they become available.
      A non-recoverable error (bad magic, bad CRC, oversized, unknown
      version) poisons the reader: framing on a corrupted stream cannot be
      trusted again, so the transport must drop the connection. *)

  type t

  val create : ?max_body:int -> unit -> t

  val feed : t -> Bytes.t -> pos:int -> len:int -> unit
  (** Append [len] bytes of the chunk starting at [pos].  The bytes are
      copied, so the caller may reuse the chunk (the transport's read
      buffer) right away. *)

  val next : t -> (frame option, error) result
  (** [Ok None] = need more bytes; [Ok (Some f)] = one frame extracted;
      [Error _] = stream corrupt (sticky: every later call returns the same
      error). *)

  val next_view : t -> (view option, error) result
  (** {!next} without the body copy: the view aliases the reader's internal
      snapshot string, which is immutable and therefore stays valid across
      later [feed]/[next] calls (a refill swaps in a new string, it never
      mutates the old one).  The transport receive path uses this.

      Copy rule: fed bytes are staged and moved into a fresh snapshot only
      once the next frame can be complete, and a refill copies only bytes
      not yet consumed - so each received byte is copied a bounded number
      of times (once into staging, at most three times into a snapshot),
      whatever the chunking. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed as frames. *)
end
