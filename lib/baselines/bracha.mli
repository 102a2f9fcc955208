(** Bracha reliable broadcast (Information & Computation 1987), hash-based.

    The classical [n >= 3t + 1] primitive: a designated sender broadcasts a
    payload; every honest party eventually delivers the same payload, and if
    the sender is honest that payload is its input.  O(n^2) messages per
    broadcast - the message-complexity contrast of Section 1.3, and the
    dissemination layer of the ACS example built on the paper's ABA.

    The payload travels once: only the sender's [Initial] carries it.
    [Echo] and [Ready] carry its 32-byte SHA-256 digest
    ({!Bca_crypto.Sha256}), which a party computes once, on the sender's
    [Initial].  Thresholds are Bracha's over digests: echo on the sender's
    [Initial], ready on [n - t] echoes or [t + 1] readies of one digest,
    deliver on [2t + 1] readies of [h] {e and} a held payload hashing to
    [h].

    A party can reach [2t + 1] readies without ever receiving the sender's
    [Initial] (a Byzantine sender skipped it, or the schedule is slow).  It
    then broadcasts one [Fetch h]; every party holding a payload that
    hashes to [h] answers each requester once with [Payload x], and the
    requester keeps [x] only if [h(x)] has at least [t + 1] readies - so at
    least one honest party vouched for it, and a forged payload is dropped.
    [2t + 1] readies for [h] mean at least [t + 1] honest parties echoed
    [h], each holding its payload, so the pull always finds an honest
    holder: totality survives, provided holders keep answering [Fetch]
    after they have delivered (and after any enclosing protocol has
    terminated). *)

module Types = Bca_core.Types

type digest = string
(** A raw {!Bca_crypto.Sha256.size}-byte SHA-256 digest. *)

type msg =
  | Initial of string  (** the sender's payload - the only full copy sent *)
  | Echo of digest
  | Ready of digest
  | Fetch of digest  (** pull: [2t + 1] readies for the digest, no payload held *)
  | Payload of string  (** answer to a [Fetch]: a held payload *)

val pp_msg : Format.formatter -> msg -> unit
(** Payloads print verbatim, digests as their first 8 hex digits. *)

type t

val create : Types.cfg -> me:Types.pid -> sender:Types.pid -> t

val broadcast : t -> string -> msg list
(** The sender's initial step; must be called on the sender's instance. *)

val handle : t -> from:Types.pid -> msg -> msg list

val delivered : t -> string option
(** The reliably delivered payload, once any.  Totality, agreement and
    validity are the standard Bracha guarantees; agreement additionally
    rests on SHA-256 collision resistance. *)

val retire : t -> unit
(** Shrink a finished instance to what it can still be asked for: the
    held payloads with their digests, the requesters already served and
    {!delivered}.  The echo and ready tallies are dropped.  Afterwards
    {!handle} answers each [Fetch] exactly as before (once per requester,
    from a held payload) and ignores every other message, so pull
    totality survives: a lagging party can still get the payload from a
    holder whose enclosing protocol has terminated.  Idempotent. *)
