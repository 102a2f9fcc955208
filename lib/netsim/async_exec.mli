(** Asynchronous event-driven executor.

    Models the paper's network (Section 2): reliable links with unbounded,
    adversary-controlled delay.  All sent messages sit in an in-flight pool;
    a {e scheduler} - the adversary's delay power - picks which envelope to
    deliver next.  Any scheduler that eventually delivers everything is a
    valid asynchronous execution; safety properties must hold under all of
    them.

    {b Hot path}: schedulers choose a {e slot index} into the in-flight pool
    rather than receiving a materialized list, so one delivery costs O(1)
    (random), O(log m) amortized (FIFO, via a min-eid heap) or one
    allocation-free pass (skewed) instead of the former O(m) list snapshot
    per step, with identical delivery traces.

    Crash faults are modelled by {!crash}: the party stops receiving and
    emitting.  [crash] can be combined with {!drop_outgoing} to model a party
    that crashed in the middle of a broadcast, so only a subset of recipients
    ever gets the last message (needed for the ACA weak-validity and
    uniform-agreement corner cases). *)

type pid = Node.pid

type 'm envelope = {
  eid : int;  (** unique, increasing with send order *)
  src : pid;
  dst : pid;
  payload : 'm;
  depth : int;  (** 1 + the sender's causal depth at send time *)
}

type 'm t

val create : n:int -> make:(pid -> 'm Node.t * 'm Node.emit list) -> 'm t
(** Build an execution with [n] parties.  [make pid] returns the party's node
    and its initial sends (the "send <val, x> to all" first line of every
    protocol).  Tracing is disabled; same as [create_traced
    ~tracer:Bca_obs.Trace.null]. *)

val create_traced :
  tracer:Bca_obs.Trace.t ->
  n:int ->
  make:(pid -> 'm Node.t * 'm Node.emit list) ->
  'm t
(** Like {!create}, but every network-level event (send, deliver, drop,
    duplicate, redirect, swap, crash) is emitted to [tracer], including the
    initial sends performed during construction.  Pass
    [Bca_obs.Trace.null] to disable: instrumentation sites test a cached
    boolean and build no event values, so a null-traced execution costs one
    predictable branch per site (see DESIGN.md section 10). *)

val n : 'm t -> int

val inflight : 'm t -> 'm envelope list
(** Snapshot of undelivered envelopes, in pool-slot order (the [i]th element
    is {!pool_get}[ t i]).  O(m); meant for attack drivers and tests, not for
    scheduler hot paths - those should use {!pool_size} and {!pool_get}. *)

val inflight_count : 'm t -> int

val pool_size : 'm t -> int
(** Number of in-flight envelopes, O(1).  Same as {!inflight_count}. *)

val pool_get : 'm t -> int -> 'm envelope
(** [pool_get t i] is the in-flight envelope in slot [i], [0 <= i <
    pool_size t], O(1).  Slots are reshuffled by removals (swap-remove);
    only the current multiset of envelopes is meaningful across steps. *)

val deliveries : 'm t -> int
(** Total number of envelopes delivered so far. *)

val crash : 'm t -> pid -> unit
(** Party [pid] halts: stops receiving and emitting.  Its already in-flight
    messages remain deliverable (links are reliable). *)

val crashed : 'm t -> pid -> bool

val revive : 'm t -> pid -> unit
(** Undo {!crash}: party [pid] resumes receiving and emitting with the state
    it had when it halted - the crash-{e recovery} model, where a killed
    process restarts from a durable log that reconstructs exactly its
    pre-crash state (see [Bca_recovery.Wal]).  Messages consumed while the
    party was down stay lost; the chaos layer re-injects them to model the
    rejoin handshake's history resend.  Revival is outside the action-replay
    determinism contract: [replay] of a trace containing a [Crash] leaves
    the party down. *)

val drop_outgoing : 'm t -> src:pid -> keep:('m envelope -> bool) -> unit
(** Remove a subset of [src]'s in-flight messages, modelling sends that never
    happened because the party crashed mid-broadcast.  Only meaningful
    together with {!crash}. *)

val inject : 'm t -> src:pid -> 'm Node.emit list -> unit
(** Place adversary-crafted messages in flight, attributed to [src].  Used by
    Byzantine attack drivers. *)

val deliver_eid : 'm t -> int -> bool
(** Deliver the envelope with this id, O(1).  Returns [false] if it is no
    longer in flight.  Delivery to a crashed party consumes the envelope
    silently. *)

(** {2 Fault primitives}

    Raw adversary powers over the in-flight pool, all O(1) by envelope id.
    They enforce no fault-model policy themselves: unrestricted use against
    honest links breaks the paper's reliable-link assumption, so callers
    must gate them - [Bca_adversary.Chaos] only applies them to faulty
    parties' traffic or within a per-link fairness budget.  All primitives
    keep every scheduler consistent (removals rely on the FIFO heap's lazy
    deletion; rewrites keep the envelope's id and slot). *)

val drop_eid : 'm t -> int -> 'm envelope option
(** Remove the envelope from flight without delivering it; returns it, or
    [None] if it was no longer in flight.  A message-omission fault. *)

val duplicate_eid : 'm t -> int -> bool
(** Put a copy of the envelope (fresh id, same src/dst/payload/depth) in
    flight.  Models at-least-once links / replayed packets; protocols must
    be idempotent against it.  [false] if the id is not in flight. *)

val redirect_eid : 'm t -> int -> dst:pid -> bool
(** Rewrite the envelope's destination in place (id preserved).  Only
    meaningful against a faulty sender's traffic. *)

val swap_payloads : 'm t -> int -> int -> bool
(** Exchange the payloads of two in-flight envelopes (ids preserved) - a
    type-agnostic corruption: applied to two messages of one faulty sender
    it models equivocation-style reordering of that sender's traffic.
    [false] unless both ids are in flight and distinct. *)

(** {2 Replay}

    An execution is determined by its construction plus the sequence of
    {e actions} performed on it: nodes are deterministic state machines and
    envelope ids come from a monotone counter, so rebuilding the cluster the
    same way (same [n], same [make], same injections) and re-applying a
    recorded action log reproduces the original run bit for bit.  The action
    subset of the event taxonomy is exactly [Bca_obs.Event.is_action]; see
    DESIGN.md section 10 for the full determinism contract. *)

val apply : 'm t -> Bca_obs.Event.t -> bool
(** Re-apply one recorded event.  Action events perform the corresponding
    executor operation ([Deliver] -> {!deliver_eid}, [Drop] -> {!drop_eid},
    [Duplicate] -> {!duplicate_eid} after checking that the copy's id matches
    the executor's next id, [Redirect] -> {!redirect_eid}, [Swap] ->
    {!swap_payloads}, [Crash] -> {!crash}); non-action events are no-ops.
    Returns [false] if the event is not applicable - the replayed cluster has
    diverged from the one that produced the log. *)

val replay : 'm t -> Bca_obs.Event.timed array -> (unit, string) result
(** Re-apply a full recorded event stream in order, skipping non-action
    events.  Stops at the first inapplicable action with an error naming the
    offending event.  If the execution was built with {!create_traced}, the
    replay emits a fresh trace that can be compared with the original for
    bit-for-bit identity. *)

type 'm scheduler
(** A delivery policy.  Built-in policies pick a pool slot directly and are
    interpreted by the executor without materializing the in-flight set. *)

val random_scheduler : Bca_util.Rng.t -> 'm scheduler
(** Uniformly random delivery order - the canonical fair adversary used by
    property tests.  O(1) per pick; draws the same RNG stream (and therefore
    produces the same delivery trace) as the historical list-based
    implementation. *)

val skewed_scheduler :
  Bca_util.Rng.t -> slow:(pid list) -> bias:int -> 'm scheduler
(** A random scheduler that starves the [slow] parties: deliveries to them
    are only considered with probability [1/bias] per pick.  Still fair
    (every message is eventually delivered) - models persistently laggy
    replicas.  Allocation-free in steady state: slowness is a pid-indexed
    bitmap (built on first pick), one counting pass over the pool per
    pick. *)

val fifo_scheduler : 'm scheduler
(** Deliver in send order (lowest [eid] first): the most synchronous-looking
    schedule.  Backed by a min-eid binary heap maintained beside the pool,
    O(log m) amortized per pick. *)

val indexed_scheduler : (delivered:int -> 'm t -> int option) -> 'm scheduler
(** Custom policy over the indexed API: inspect the pool via {!pool_size} /
    {!pool_get} and return a slot in [\[0, pool_size t)], or [None] to stop.
    The chooser must not mutate the execution. *)

val step : 'm t -> 'm scheduler -> [ `Delivered of 'm envelope | `Stopped | `Empty ]
(** One scheduling decision. *)

type outcome = [ `All_terminated | `Quiescent | `Limit | `Stopped ]

val run :
  ?max_deliveries:int ->
  ?stop_when:('m t -> bool) ->
  'm t ->
  'm scheduler ->
  outcome
(** Drive the execution until every party reports [terminated] (crashed
    parties count as terminated), the pool drains ([`Quiescent] - a liveness
    failure for a terminating protocol), [stop_when] becomes true, the
    scheduler stops, or [max_deliveries] (default 1_000_000) is hit. *)

val all_terminated : 'm t -> bool

val node_of : 'm t -> pid -> 'm Node.t
(** Access a party's node (for reading protocol state via closures captured
    at construction time). *)

val set_observer : 'm t -> ('m envelope -> unit) -> unit
(** Install a delivery observer, called on every delivery (including those
    consumed by crashed parties) - tracing and statistics hooks. *)

val depth_of : 'm t -> pid -> int
(** The causal depth of party [pid]: the length of the longest
    message chain it has observed.  This is the asynchronous notion of
    "communication rounds elapsed" and is invariant under message trickling,
    unlike delivery counts. *)

val max_depth : 'm t -> int
(** Maximum causal depth over all parties - "broadcasts on the critical
    path", the unit of the paper's tables. *)
