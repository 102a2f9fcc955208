(** Durable per-node write-ahead log for crash-recovery clusters.

    A WAL is an append-only file of self-delimiting, CRC'd records, one
    file per cluster node ([wal-<pid>.log] under [--wal-dir]).  A node
    writes enough to its WAL that a SIGKILL at any byte boundary - torn
    tail included - loses nothing the rest of the cluster may already have
    observed: the node's input and derivation seed (the {!Meta} header
    record), every protocol frame it delivered ({!Recv}, made durable
    {e before} the frame is applied), the frames it intended to transmit
    ({!Sent}, write-ordered before the actual send), and protocol
    milestones / decisions as observability events ({!Note}, stored in the
    [Bca_obs.Event] JSONL encoding).

    Because every stack is a deterministic state machine, the {!Meta} +
    {!Recv} prefix alone reconstructs the node's exact pre-crash state: the
    recovery driver ([Bca_transport.Cluster.serve]) rebuilds the same
    protocol assembly from the logged seed and re-applies the logged
    deliveries in order, regenerating - and cross-checking against the
    {!Sent} records - every frame the node ever put on the wire.  {!Sent}
    and {!Note} records are therefore redundant for safety; they exist for
    divergence detection, re-announcement, and post-mortem inspection.

    {2 Record framing}

    Following the [Bca_wire] framing discipline, each record is

    {v
    offset  size  field
    0       1     tag (1 = Meta, 2 = Recv, 3 = Sent, 4 = Note)
    1       4     body length, big-endian
    5       4     CRC-32 (IEEE) of the body, big-endian
    9       len   body
    v}

    and decoding is strict and total: {!decode} never raises, whatever the
    input bytes, and returns the longest valid record prefix.  Anything
    after the first truncated, oversized, CRC-failing or malformed record
    is treated as a torn tail; {!reopen} truncates it away before the
    recovered node resumes appending. *)

type meta = {
  w_stack : string;  (** stack name, e.g. ["byz-strong"] *)
  w_eps : float;  (** local-coin epsilon (0.0 unless crash-local) *)
  w_n : int;
  w_t : int;
  w_me : int;  (** this node's pid *)
  w_seed : int64;  (** cluster seed the assembly derives from *)
  w_input : Bca_util.Value.t;  (** this node's input bit *)
}
(** The header record: everything needed to rebuild the node's protocol
    assembly deterministically.  Always the first record of a valid WAL;
    recovery refuses a WAL whose [meta] disagrees with the command line it
    was restarted with. *)

type record =
  | Meta of meta
  | Recv of string
      (** a protocol frame this node delivered, in canonical
          [Bca_wire.Wire] frame bytes; appended and fsync'd {e before} the
          frame is applied to the protocol state machine *)
  | Sent of { dst : int; frame : string }
      (** a frame this node handed to the transport for [dst];
          write-ordered before the transmit, flushed with the next
          delivery *)
  | Note of Bca_obs.Event.timed
      (** a protocol milestone (round entry, quorum, coin reveal, commit)
          in the obs JSONL encoding *)

type torn = {
  torn_off : int;  (** byte offset where the torn/invalid record starts *)
  torn_reason : string;
}

val encode_record : Buffer.t -> record -> unit
(** Append one framed record to [buf]. *)

val decode : string -> record list * torn option
(** Longest valid record prefix of a byte string.  Total: never raises.
    [torn = None] iff every byte was consumed by valid records; otherwise
    [torn_off] is the number of valid-prefix bytes. *)

val valid_bytes : string -> torn option -> int
(** The length of the valid prefix [decode] consumed: the whole string
    when [torn = None], [torn_off] otherwise. *)

(** {1 Appending} *)

type writer

val create : path:string -> meta -> writer
(** Start a fresh WAL at [path] (truncating any previous file), write the
    {!Meta} record and fsync it. *)

val reopen : path:string -> valid_bytes:int -> writer
(** Reopen an existing WAL for appending after recovery: the file is
    truncated to [valid_bytes] (discarding a torn tail) and subsequent
    {!append}s extend it. *)

val append : writer -> record -> unit
(** Buffer one record.  Nothing is durable until {!flush}. *)

val flush : writer -> unit
(** Write all buffered records and [fsync].  On return every record
    appended so far survives a crash of this process and of the OS page
    cache. *)

val close : writer -> unit
(** {!flush} then close the fd.  Idempotent. *)

val bytes_appended : writer -> int
(** Total record bytes appended through this writer (buffered or not);
    excludes bytes already in the file when {!reopen}ed. *)

val records_appended : writer -> int

(** {1 Loading} *)

val load : string -> (meta * record list * torn option, string) result
(** Read a WAL file and decode it.  [Ok (meta, records, torn)] gives the
    header, every following valid record in order, and the torn-tail
    diagnostic if the file ends mid-record.  [Error] when the file cannot
    be read or does not begin with a valid {!Meta} record. *)

val file_path : dir:string -> me:int -> string
(** [wal-<me>.log] under [dir] - the per-node naming convention shared by
    [bca_node --wal-dir] and the cluster supervisor. *)
