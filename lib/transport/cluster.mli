(** Run the six (G)BCA stacks and the replicated log over real transports.

    Every binary entry point is built on [Bca_core.Aba.run_custom] /
    [Aba.run_custom_many] (the cluster assembly - coin seeding,
    threshold-key setup, per-party construction - is byte-for-byte the one
    the simulator uses; only message movement differs).  Three workloads -
    ABA x 1 (one agreement), ABA x B (B pipelined agreements over one
    endpoint, frames batched per destination by {!Batcher}) and the
    replicated log ({!Bca_rsm.Rsm}) - share one node runtime:

    - {b Loopback}: {!run_loopback}, {!run_loopback_multi},
      {!run_rsm_loopback} and {!run_rsm_loadgen_loopback} run the whole
      cluster in one process over {!Transport.Loopback}, every message
      encoded and decoded on each hop, through one run loop.
      {b Determinism contract}: for a given [seed] the run is bit-identical
      to the netsim run of the same seed ([Bca_core.Aba.run ~seed], or
      [Async_exec.run] under the random scheduler for the log) - same
      decisions, commit rounds, delivery count - because the hub replays
      the netsim random scheduler's exact RNG stream over an
      identically-ordered frame pool (DESIGN.md section 11).
    - {b Node}: {!serve} drives ONE node of any workload over a socket
      {!Transport.t} - what [bca_node] executes, one process per node.
    - {b In-process}: {!run_inproc_cluster} and {!run_rsm_loadgen} run all
      [n] nodes in one process over real sockets - the bench harnesses.
    - {b Launcher}: {!spawn} forks [n] [bca_node] processes, gathers one
      report line from each ({!report_to_line}) and checks agreement; with
      a WAL dir it supervises them, restarting a dead node, which replays
      its WAL and rejoins mid-flight (DESIGN.md section 13).

    {b Control plane.}  Nodes exchange two out-of-band control frames
    under a dedicated codec id (0xC7): [HELLO], broadcast by a recovered
    node, is answered by re-sending the full per-destination frame history
    to the sender (safe because every stack is idempotent per sender);
    [BYE] announces termination, and a lingering node that has collected
    n-1 BYEs exits early instead of sitting out its linger. *)

val parse_stack : ?eps:float -> string -> (Bca_core.Aba.spec, string) result
(** [crash-strong], [crash-weak], [crash-local], [byz-strong], [byz-weak],
    [byz-tsig] (the weak stacks take their coin goodness from [eps],
    default 0.25) - same names [bca run] accepts. *)

val stack_name : Bca_core.Aba.spec -> string
(** Canonical name, [parse_stack]-compatible. *)

val all_stacks : ?eps:float -> unit -> (string * Bca_core.Aba.spec) list
(** The six stacks by canonical name. *)

type net_stats = {
  frames : int;  (** frames sent cluster-wide *)
  bytes : int;  (** on-wire bytes sent, headers included *)
  words : int;  (** [bytes] in 64-bit words - the paper's complexity unit *)
}

(** {1 Instance derivation}

    Multi-instance runs derive every instance's seed and input vector from
    one cluster seed, so every process (and the tests and the bench)
    reconstructs identical instances without shipping B input vectors
    around. *)

val instance_seed : seed:int64 -> int -> int64
(** Seed of instance [k]: a Weyl step of the golden-ratio constant per
    instance, never equal to [seed] itself. *)

val instance_inputs : seed:int64 -> n:int -> int -> Bca_util.Value.t array
(** Input vector of instance [k]: [n] coin flips from an RNG seeded off
    {!instance_seed}. *)

val rsm_log_hash : Bca_rsm.Rsm.tx list -> int64
(** Digest of a committed log ({!Bca_rsm.Mvba.digest} over the netstring
    encoding) - what log nodes report and launchers compare. *)

val rsm_workload : pid:int -> count:int -> tx_bytes:int -> Bca_rsm.Rsm.tx list
(** The deterministic per-node workload every [bca_node --rsm] process
    regenerates from its spawn parameters: [count] transactions, globally
    unique by pid and index, padded to [tx_bytes]. *)

(** {1 Loopback} *)

val run_loopback :
  ?seed:int64 ->
  Bca_core.Aba.spec ->
  cfg:Bca_core.Types.cfg ->
  inputs:Bca_util.Value.t array ->
  (Bca_core.Aba.result * net_stats, string) result
(** Single-process cluster over the in-memory hub; see the determinism
    contract above.  This is also how the bench report measures
    per-decision bytes/words per stack. *)

val run_loopback_multi :
  ?seed:int64 ->
  Bca_core.Aba.spec ->
  cfg:Bca_core.Types.cfg ->
  instances:int ->
  ((Bca_core.Aba.result * net_stats) array, string) result
(** [instances] loopback clusters of the same stack (instance [k] seeded
    with [instance_seed ~seed k], inputs from [instance_inputs]),
    interleaved one delivery at a time round-robin.  Per-instance results
    are bit-identical to solo {!run_loopback} runs of the same derived
    seed - the executor-correctness oracle for the batched socket path. *)

type rsm_loop_result = {
  rl_logs : Bca_rsm.Rsm.tx list array;  (** per-replica committed log *)
  rl_deliveries : int;
  rl_stats : net_stats;
}

val run_rsm_loopback :
  ?seed:int64 ->
  Bca_rsm.Rsm.params ->
  txs:(int -> Bca_rsm.Rsm.tx list) ->
  (rsm_loop_result, string) result
(** Single-process replicated log over the in-memory hub: replica [pid]
    submits [txs pid] right after construction, then every epoch's ACS
    runs with each hop round-tripping through the codec-7 wire format.
    Same determinism contract as {!run_loopback}. *)

(** {1 The per-node report}

    Every node of every workload ends with one {!report}; [bca_node]
    prints it as one line ({!report_to_line}) and the launcher parses it
    back ({!report_of_line}).  The workloads differ only in the agreement
    {!key}. *)

type recovery_info = {
  ri_pid : int;
  ri_records : int;  (** WAL records replayed (the Meta header excluded) *)
  ri_wal_bytes : int;  (** valid WAL prefix bytes (torn tail excluded) *)
  ri_replay_s : float;  (** wall time spent loading and replaying the WAL *)
}

(** What every node must agree on. *)
type key =
  | Value of Bca_util.Value.t  (** ABA x 1: the decision *)
  | Values of Bca_util.Value.t array  (** ABA x B: one decision per instance *)
  | Log of { epochs : int; txs : int; hash : int64 }
      (** the log: committed epochs, transactions and {!rsm_log_hash} *)

val key_values : key -> Bca_util.Value.t array
(** The decisions of a key, per instance ([[||]] for a log). *)

val key_to_string : key -> string

type report = {
  rp_pid : int;
  rp_key : key;
  rp_rounds : int array;  (** commit round per instance; [[||]] for a log *)
  rp_frames : int;  (** frames this node sent (batch frames for ABA x B) *)
  rp_bytes : int;  (** bytes this node sent *)
  rp_batches : int;  (** batch frames assembled (ABA x B, else 0) *)
  rp_records : int;  (** protocol messages carried in them *)
  rp_recovery : recovery_info option;  (** set when this node replayed its WAL *)
}

val report_to_line : report -> string
(** [REPORT pid=.. frames=.. bytes=.. batches=.. records=.. <key>
    [recovered=<records>:<wal bytes>:<replay s>] end], where [<key>] is
    [value=<0|1> rounds=<r>], [values=<bits> rounds=<csv>] or
    [epochs=<e> txs=<k> hash=<16 hex digits>]. *)

val report_of_line : string -> report option
(** Inverse of {!report_to_line}; [None] for any other line - a
    non-binary value, a rounds count that does not match the values, an
    unknown or repeated field, or a line cut short. *)

(** {1 One node over a socket transport} *)

(** A workload and its parameters, as every node of the cluster rebuilds
    it.  For the binary workloads, every process builds the same assembly
    from [seed]: ABA x 1 needs the full cluster's [inputs]; ABA x B
    derives its seeds and inputs per {!instance_seed} /
    {!instance_inputs}.  The log's coin is seeded with [seed], and every
    replica submits the union of {!rsm_workload} over all pids
    ([txs_per_node] each): commit-time deduplication makes each
    transaction commit exactly once. *)
type job =
  | Aba_one of { spec : Bca_core.Aba.spec; inputs : Bca_util.Value.t array }
  | Aba_many of { spec : Bca_core.Aba.spec; instances : int; policy : Batcher.policy }
  | Rsm_log of {
      epochs : int;
      window : int;
      batch : Bca_rsm.Rsm.batch_policy;
      txs_per_node : int;
      tx_bytes : int;
    }

val serve :
  ?timeout_s:float ->
  ?linger_s:float ->
  ?tracer:Bca_obs.Trace.t ->
  ?wal_dir:string ->
  ?recover:bool ->
  seed:int64 ->
  cfg:Bca_core.Types.cfg ->
  job ->
  net:Transport.t ->
  (report, string) result
(** Drive node [net.me] of [job] to termination over [net], then close
    [net].  The node makes its initial sends, then runs scheduling slices
    - deliver its self-addressed messages (FIFO, never the network), take
    one inbound frame, ship what it emitted - until the workload
    terminates or [timeout_s] (default 30) elapses.  It then broadcasts
    BYE, flushes, and keeps answering peers for [linger_s] (default 1)
    seconds, or until all n-1 peers BYE'd, so laggards can finish.

    ABA x 1 only: [tracer] observes the assembly (the kill trigger of
    [bca_node --kill-at]).  With [wal_dir] the node keeps a durable
    write-ahead log ([Bca_recovery.Wal.file_path ~dir ~me]): its meta
    header, every delivered frame (fsync'd {e before} it is applied -
    otherwise a post-crash replay could recompute this node's sends under
    a delivery order the cluster never saw, an honest equivocation), every
    sent frame's intent, and milestone notes.  With [recover] the WAL is
    loaded first: the node replays the logged deliveries against the
    freshly built assembly (cross-checking regenerated sends against the
    logged intents), reopens the WAL at its valid prefix, records the
    replay cost in [rp_recovery], then rejoins the live cluster -
    broadcasting HELLO and re-sending its own regenerated history.
    [Error] for [wal_dir]/[recover] with another workload. *)

(** {1 Cluster results} *)

type cluster_result = {
  c_key : key;  (** the key every node reported *)
  c_rounds : int array;
      (** per-pid commit round (ABA x 1); per-instance maximum over nodes
          (ABA x B); empty for a log *)
  c_stats : net_stats;  (** cluster-wide traffic totals *)
  c_batches : int;
  c_records : int;
  c_restarts : int;  (** node restarts the supervisor performed *)
  c_recoveries : recovery_info list;  (** one per node that reported a WAL replay *)
  c_wal_bytes : int;  (** bytes across all WAL files when the run ended *)
}

(** {1 In-process socket clusters (bench harnesses)}

    All [n] nodes in ONE process over real sockets ([`Unix]: a fresh
    temporary directory; [`Tcp]: loopback on picked ports, retried on a
    lost bind race), stepped round-robin with the same workload slices
    {!serve} runs, and checked for agreement on their reports. *)

type inproc_result = {
  ir_values : Bca_util.Value.t array;  (** per-instance agreed value *)
  ir_rounds : int array;  (** per-instance max commit round *)
  ir_frames : int;  (** frames sent cluster-wide (batches, not records) *)
  ir_bytes : int;  (** on-wire bytes sent cluster-wide *)
  ir_writes : int;  (** [write] syscalls cluster-wide - the coalescing win *)
  ir_batches : int;
  ir_records : int;
  ir_max_occupancy : int;  (** largest record count seen in one batch *)
}

val run_inproc_cluster :
  ?seed:int64 ->
  ?policy:Batcher.policy ->
  ?coalesce:bool ->
  ?timeout_s:float ->
  Bca_core.Aba.spec ->
  cfg:Bca_core.Types.cfg ->
  instances:int ->
  transport:[ `Unix | `Tcp ] ->
  (inproc_result, string) result
(** ABA x [instances], all nodes sharing one assembly - the
    cluster-throughput bench harness: [policy]/[coalesce] select the
    batched hot path (defaults) or the per-message baseline
    ([policy = Batcher.immediate], [coalesce:false]). *)

type rsm_load = {
  lg_rate : float;  (** target submissions/s cluster-wide; [<= 0]: preload all *)
  lg_total : int;  (** transactions to inject, round-robin across replicas *)
  lg_tx_bytes : int;  (** padded size of each transaction *)
}

type rsm_load_result = {
  lr_committed : int;  (** transactions in the committed log *)
  lr_epochs : int;
  lr_duration_s : float;  (** start to the last commit at the observer *)
  lr_tx_per_s : float;  (** [committed / duration] *)
  lr_p50_ms : float;  (** median submit-to-commit latency *)
  lr_p99_ms : float;
  lr_frames : int;  (** frames sent cluster-wide *)
  lr_bytes : int;
  lr_writes : int;  (** write syscalls cluster-wide (0 for loopback) *)
}

val run_rsm_loadgen_loopback :
  ?seed:int64 ->
  ?timeout_s:float ->
  Bca_rsm.Rsm.params ->
  load:rsm_load ->
  (rsm_load_result, string) result
(** Open-loop load generation over the in-memory hub: transaction [i] is
    due at [t0 + i/rate] (all at [t0] when [lg_rate <= 0]) and submitted
    to replica [i mod n]; replica 0 observes commits, so a latency spans
    submission at any replica to commit in replica 0's log.  Throughput
    is measured to the last commit, not to the end of the (possibly
    empty) trailing epochs. *)

val run_rsm_loadgen :
  ?timeout_s:float ->
  ?hop_s:float ->
  Bca_rsm.Rsm.params ->
  load:rsm_load ->
  transport:[ `Unix | `Tcp ] ->
  (rsm_load_result, string) result
(** {!run_rsm_loadgen_loopback} over real sockets, with injection
    interleaved between sweeps; replicas must agree on the log digest.
    This is the [bca loadgen] and bench-[rsm] harness.

    [hop_s] (default 0) emulates one-way network latency netem-style:
    each replica's outbound frames are held [hop_s] seconds before they
    reach the sockets (self-copies stay immediate - the delay models the
    wire, not local compute).  Local sockets are microseconds away, so
    without it the run is CPU-bound and a deep window only adds
    window-fill epochs; with a realistic hop the run is latency-bound
    and pipelining (window > 1) overlaps the per-epoch round trips that
    a sequential log pays serially.  Reported commit latencies include
    the emulated hops. *)

(** {1 Multi-process launcher} *)

val addr_in_use_exit : int
(** Exit code (3) [bca_node] reserves for a bind failure (EADDRINUSE):
    the launcher sees it and retries the whole spawn with fresh ports, so
    parallel CI runs cannot race each other's rendezvous. *)

val spawn :
  ?timeout_s:float ->
  ?pick_ports:(attempt:int -> int array) ->
  ?wal_dir:string ->
  ?max_restarts:int ->
  ?kill_at:int * string ->
  node_exe:string ->
  cfg:Bca_core.Types.cfg ->
  seed:int64 ->
  transport:[ `Unix | `Tcp ] ->
  job ->
  (cluster_result, string) result
(** Fork one [node_exe] process per node ([`Unix]: sockets in a fresh
    temporary directory, removed afterwards; [`Tcp]: loopback TCP on
    {!Transport.Socket.pick_tcp_ports} ports), parse each node's report
    line, and check they all hold the same key.  [Error] on disagreement
    (a protocol bug), on a node exiting without a report, and on
    [timeout_s] (default 60) elapsing - surviving processes are killed.
    A TCP spawn where a node exits {!addr_in_use_exit} (lost the port
    race) is retried with fresh ports, up to 3 attempts.  [pick_ports]
    overrides the port rendezvous per attempt (1-based) - a test hook for
    forcing and then resolving bind collisions.

    {b Supervision} applies exactly when [wal_dir] is given (ABA x 1
    only: restarting a node without its WAL is an honest equivocation).
    Every node then keeps its WAL in [wal_dir] and lingers as long as
    [timeout_s] (the BYE exchange ends it early); a node that dies
    (killed by a signal, exiting non-zero, or exiting without a report)
    is restarted with capped-exponential backoff (0.25 s doubling to 2 s
    per restart of that node), at most [max_restarts] (default 4) times,
    with [--recover] once its WAL exists.  [kill_at = (victim, trigger)]
    arms node [victim] with [--kill-at trigger] (e.g. ["coin:1"]: SIGKILL
    itself at its first access of round 1's coin - mid-round, with the
    binding property in flight); the recovering argv strips the flag so
    replay does not re-fire.  [wal_dir] must exist and persist across
    restarts; the caller owns it. *)
