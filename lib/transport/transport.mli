(** Real message transports for multi-process (G)BCA clusters.

    A transport endpoint moves {e encoded frames} ([Bca_wire.Wire]) between
    the [n] parties of one protocol instance.  Three implementations share
    one record interface ({!t}):

    - {!Loopback}: an in-memory hub for single-process runs.  Deterministic
      by construction - frame delivery order is drawn from a seeded
      [Bca_util.Rng], mirroring [Bca_netsim.Async_exec]'s random scheduler,
      which is what makes a loopback cluster run bit-identical to a netsim
      run of the same seed (see [Cluster.run_loopback] and DESIGN.md
      section 11).
    - {!Socket} over Unix-domain sockets: multi-process on one machine.
    - {!Socket} over TCP: the same engine over [127.0.0.1] (or any
      [sockaddr]); what the CI cluster-smoke job runs.

    The socket engine is single-threaded: all progress (connect
    completion, accepting, reading, writing, retries) happens inside
    {!t.recv} / {!t.flush} pumps built on [Unix.select].  Outbound
    connections are lazy - opened on the first send to a peer - and retried
    with capped exponential backoff until {!Socket} gives the peer up; a
    completed handshake resets the backoff state entirely (retry counter
    and pending-attempt time), so a flapping peer that keeps reconnecting
    successfully never accumulates toward give-up.  Inbound connections
    are anonymous byte streams (the frame header carries the sender pid,
    so no handshake is needed) - which also makes a {e restarted} peer
    with the same node id but a fresh socket indistinguishable from a slow
    one: its frames are accepted as before, and receiving a frame from a
    peer this endpoint had given up on resurrects the outgoing side
    (Dead -> Idle), the transport-level half of cluster crash-recovery
    ([Bca_transport.Cluster], [Bca_recovery.Wal]).  A corrupt inbound
    stream (bad magic / CRC / oversized frame) poisons its
    [Bca_wire.Wire.Reader] and the connection is dropped; the sender's
    reconnect logic re-establishes it.  See DESIGN.md section 11 for the
    connection state machine.

    Every endpoint keeps {!stats} counters, and when built with a tracer
    emits [Bca_obs.Event.Transport] events (connect / accept / retry /
    give_up / revive / close / tx / rx / drop) through the ordinary trace
    sinks. *)

type stats = {
  mutable frames_out : int;
  mutable bytes_out : int;  (** on-wire bytes enqueued, headers included *)
  mutable frames_in : int;
  mutable bytes_in : int;
  mutable writes : int;
      (** [write] syscalls that moved bytes - with coalescing, one write
          covers every frame pending for a peer, so [frames_out / writes]
          measures how well the output ring amortizes syscalls *)
  mutable retries : int;  (** reconnect attempts after a failure *)
  mutable drops : int;
      (** frames abandoned: peer given up, corrupt stream, or undecodable *)
}

val stats_zero : unit -> stats

type t = {
  me : int;
  n : int;
  kind : string;  (** ["loopback"], ["unix"] or ["tcp"] *)
  send : dst:int -> string -> unit;
      (** Enqueue one encoded frame to [dst].  [dst = me] short-circuits to
          the local inbox.  May pump the network (backpressure: bounded
          per-peer queues); never blocks indefinitely - frames to an
          unreachable peer are dropped once the peer is given up. *)
  recv : timeout_s:float -> Bca_wire.Wire.frame option;
      (** Next well-formed inbound frame, from any peer; [None] after
          [timeout_s] seconds without one.  Pumps the network while
          waiting. *)
  recv_view : timeout_s:float -> Bca_wire.Wire.view option;
      (** [recv] without the body copy: the view aliases the connection
          reader's immutable snapshot (or, for self-delivery, the sent
          frame string), so the body is decoded in place.  [recv] and
          [recv_view] drain the same inbox; use either. *)
  flush : timeout_s:float -> bool;
      (** Pump until every outbound queue is empty or dead, or the timeout
          elapses; [true] if everything was flushed. *)
  close : unit -> unit;
  reset : dst:int -> unit;
      (** Drop the outbound connection to [dst], if one is open; the next
          send reconnects, resending a partly written frame whole.  For a
          peer known to have restarted: over TCP, a write into the dead
          process's old connection can succeed while its bytes are lost.
          A no-op on the loopback hub. *)
  stats : stats;
}

module Loopback : sig
  type hub
  (** The shared in-flight frame pool of one single-process cluster. *)

  val create_hub : ?seed:int64 -> n:int -> unit -> hub
  (** [seed] (default [0xB0CA1L]) seeds the delivery-order RNG with
      [Bca_util.Rng.create seed] - the same stream
      [Bca_core.Aba.random_run_driver] uses, which is what the
      bit-identity contract rests on. *)

  val endpoint : hub -> me:int -> t
  (** Party [me]'s view of the hub.  [send] appends to the shared pool
      ([stats] counts per-endpoint); [recv] delivers a uniformly random
      in-flight frame {e destined to [me]} (drawing from the hub RNG);
      [flush] is immediate. *)

  val step : hub -> (int * Bca_wire.Wire.frame) option
  (** Deliver the next frame cluster-wide: draw a uniformly random
      in-flight slot (one [Rng.int] per step, exactly like the netsim
      random scheduler), remove it, return [(dst, frame)].  [None] when
      nothing is in flight.  This is the deterministic driver's interface;
      per-endpoint [recv] and [step] draw from the same RNG, so a driver
      should use one or the other, not both. *)

  val pending : hub -> int
end

module Socket : sig
  val endpoint :
    ?tracer:Bca_obs.Trace.t ->
    ?max_body:int ->
    ?max_queue_bytes:int ->
    ?backoff_base_s:float ->
    ?backoff_cap_s:float ->
    ?max_retries:int ->
    ?coalesce:bool ->
    addrs:Unix.sockaddr array ->
    me:int ->
    unit ->
    t
  (** Bind [addrs.(me)], listen, and return the endpoint.  [addrs] is the
      whole cluster's address table (index = pid); Unix-domain and TCP
      addresses both work - [kind] reflects [addrs.(me)].

      Tuning: [max_queue_bytes] (default 1 MiB) bounds each peer's
      outbound queue - [send] pumps until below the bound (backpressure);
      reconnects start at [backoff_base_s] (10 ms) doubling to
      [backoff_cap_s] (2 s); after [max_retries] (20) failed attempts the
      peer is given up and its queued frames are dropped.  A peer whose
      queue makes no write progress for [2 * backoff_cap_s] while over the
      bound (connected but never reading) is likewise given up, so [send]
      cannot block indefinitely.

      Hot-path knobs: with [coalesce] (the default) a writable peer gets
      its whole pending span - every queued frame - in one [write]
      syscall; [coalesce:false] restores the seed's frame-at-a-time writes
      (the bench's per-message baseline).  TCP_NODELAY is always set on
      TCP sockets - the small-frame protocol traffic must not sit out
      Nagle windows. *)

  val unix_addrs : dir:string -> n:int -> Unix.sockaddr array
  (** [dir/node-<pid>.sock] for each pid. *)

  val tcp_addrs : ports:int array -> Unix.sockaddr array
  (** [127.0.0.1:ports.(pid)] for each pid. *)

  val pick_tcp_ports : n:int -> int array
  (** Reserve [n] distinct free TCP ports by binding port 0 and reading
      back the assignment (then closing - a rendezvous helper for cluster
      launchers, inherently best-effort). *)
end
