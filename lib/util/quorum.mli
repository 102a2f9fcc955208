(** Quorum bookkeeping for "upon receiving <msg> from k parties" clauses.

    Every protocol in the paper is phrased as reactions to receiving some
    message type carrying a value from a threshold number of {e distinct}
    parties.  A [Quorum.t] tracks, per message type, which sender said what,
    with the deduplication discipline the pseudocode prescribes:

    - {!add_first}: only the first message of this type from each sender
      counts (the rule for echo2/echo3/... messages - "a non-faulty party
      sends a single echo2 message", and Algorithm 7's "from p_j for the
      first time").  A Byzantine sender therefore cannot vote twice.
    - {!add_value}: the first message from each (sender, value) pair counts
      (the rule for Algorithm 4/6 echo messages, where an honest party may
      legitimately send two echoes: its input and one amplification).

    Values are compared with structural equality; they are small protocol
    variants throughout this codebase.

    Representation: senders index an array, which grows on demand to the
    highest pid seen (so it ends up the size of the party count); each slot
    holds that sender's credited values.  A pid outside [\[0, 256)] - an
    out-of-band source injected into the simulator, a spoofed wire id - is
    kept in a sorted side list instead, so no sender id can make a quorum
    allocate more than 256 slots.  Per-value sender counts are kept
    incrementally, newest distinct value first, so a {!count} is a walk over
    the two or three distinct values, compared without a polymorphic
    comparison call when they are constant constructors or physically
    equal. *)

type 'v t

val create : unit -> 'v t

val copy : 'v t -> 'v t
(** Independent snapshot (used by the model checker's configuration
    cloning). *)

val add_first : 'v t -> pid:int -> 'v -> bool
(** Record a message under first-per-sender discipline.  Returns [true] iff
    the message was counted (i.e. this sender had not been seen before). *)

val add_value : 'v t -> pid:int -> 'v -> bool
(** Record a message under first-per-(sender,value) discipline.  Returns
    [true] iff this (sender, value) pair is new. *)

val count : 'v t -> 'v -> int
(** [count t v] is the number of distinct senders credited with value [v]. *)

val count_if : 'v t -> ('v -> bool) -> int
(** [count_if t p] is the number of distinct senders credited with at least
    one value satisfying [p]. *)

val senders : 'v t -> int
(** Number of distinct senders recorded, regardless of value. *)

val values : 'v t -> 'v list
(** The distinct values recorded, in unspecified order. *)

val all_equal : 'v t -> 'v option
(** [all_equal t] is [Some v] iff at least one message was recorded and every
    recorded message carries [v]. *)

val senders_of : 'v t -> 'v -> int list
(** The distinct senders credited with value [v], in ascending pid order. *)

val mem_sender : 'v t -> pid:int -> bool
(** Whether any message from [pid] has been credited. *)

val entries : 'v t -> (int * 'v) list
(** All credited (sender, value) pairs, in ascending pid order. *)

(** {1 Thresholds}

    The paper's quorum vocabulary, spelled once.  The lint [quorum] rule
    bans raw [t + 1] / [2*t + 1] / [n - t] arithmetic everywhere else, so
    that a mistyped threshold cannot hide inside a protocol body. *)

val plurality : t:int -> int
(** [t + 1]: any set this large contains at least one honest party. *)

val supermajority : t:int -> int
(** [2t + 1]: any two sets this large intersect in an honest party
    (for [n = 3t + 1]). *)

val available : n:int -> t:int -> int
(** [n - t]: the most messages a party can wait for without risking a
    deadlock on the [t] potentially silent parties. *)
