(** Pipelined replicated log: a sliding window of concurrent common
    subsets.

    The sequential HoneyBadger loop (one ACS at a time) leaves the network
    idle during each epoch's agreement tail.  This executor keeps a window
    of [window] epochs in flight at once: epoch [e] may start as soon as
    epoch [e - window] has committed, so the RBC traffic of late epochs
    overlaps the ABA tail of early ones.  Commits still happen strictly in
    epoch order - an epoch's transactions are applied only once every
    earlier epoch has been applied - so the log keeps the atomic-broadcast
    prefix property: every honest replica's log is a prefix of every
    other's.

    Batching: each replica queues client transactions ({!submit}, with
    deterministic duplicate suppression) and cuts a proposal off the queue
    when an epoch opens, bounded by [batch.max_txs] transactions and
    [batch.max_bytes] payload bytes.  A transaction submitted to several
    replicas is committed exactly once: commit-time dedup is a pure
    function of the common log, hence identical everywhere.  A replica
    whose proposal is rejected by the common subset re-queues the
    not-yet-committed remainder at the head of its queue.

    Messages for epochs beyond the local window are buffered - boundedly.
    Anything past [window + buffer_slack] epochs ahead, or beyond
    [buffer_cap] messages for one epoch, is shed with a [Buffer_drop]
    observability event: a Byzantine flood of far-future traffic cannot
    grow memory without bound.

    A committed epoch keeps only what the log can still be asked for: its
    common subset, retired at termination to its output and pull state
    ({!Acs}), so a finished log keeps answering payload pulls.  The
    epoch's own proposed batch is dropped at commit, and a committed
    transaction's submission record is overwritten by its commit record
    (which is what makes {!submit} refuse it), so memory per finished
    epoch is bounded by its payloads, not by its protocol history. *)

module Types = Bca_core.Types

type tx = string

type msg = Epoch of int * Acs.msg

val pp_msg : Format.formatter -> msg -> unit

type batch_policy = {
  max_txs : int;  (** proposal cut: max transactions per batch *)
  max_bytes : int;  (** proposal cut: max payload bytes per batch *)
}

val default_batch : batch_policy
(** 64 transactions / 64 KiB. *)

type params = {
  cfg : Types.cfg;
  coin_seed : int64;
  epochs : int;  (** log length: number of slots to commit *)
  window : int;  (** concurrent in-flight epochs (1 = sequential) *)
  batch : batch_policy;
  buffer_slack : int;  (** epochs past the window still buffered *)
  buffer_cap : int;  (** max buffered messages per future epoch *)
}

val mk_params :
  cfg:Types.cfg ->
  coin_seed:int64 ->
  epochs:int ->
  ?window:int ->
  ?batch:batch_policy ->
  ?buffer_slack:int ->
  ?buffer_cap:int ->
  unit ->
  params
(** Defaults: [window = 4], [batch = default_batch],
    [buffer_slack = window], [buffer_cap = 4096]. *)

val encode_batch : tx list -> string
(** Netstring concatenation ([<len>:<bytes>...]); transactions are
    arbitrary bytes. *)

val decode_batch : string -> tx list
(** Total inverse of {!encode_batch}: a malformed tail (Byzantine
    proposer) yields the well-formed prefix, never an exception. *)

type t

val create :
  ?on_commit:(epoch:int -> tx list -> unit) ->
  ?tracer:Bca_obs.Trace.t ->
  params ->
  me:Types.pid ->
  t * msg list
(** [on_commit] fires once per epoch, in epoch order, with the
    deduplicated transactions that epoch appended.  With [tracer], every
    applied epoch emits [Slot_commit] and every shed message
    [Buffer_drop]. *)

val submit : t -> tx -> bool
(** Queue a transaction for a future proposal.  [false] if it is a
    duplicate of an earlier submission or of an already-committed
    transaction (dropped). *)

val handle : t -> from:Types.pid -> msg -> msg list
(** Once {!terminated}, the log answers nothing but payload pulls
    ({!Acs.handle}). *)

val log : t -> tx list
(** The committed transaction sequence so far.  Prefix-consistent across
    honest replicas, duplicate-free. *)

val committed_epochs : t -> int
(** Epochs applied so far (the monitor's progress measure). *)

val in_flight : t -> int
(** Open epochs not yet committed ([<= window]). *)

val pending_txs : t -> int
(** Transactions queued and not yet proposed. *)

val buffered_msgs : t -> int
(** Messages currently held for ahead-of-window epochs ([<=] roughly
    [(window + buffer_slack) * buffer_cap] by construction). *)

val terminated : t -> bool
(** All [epochs] slots committed. *)

val node : t -> msg Bca_netsim.Node.t
