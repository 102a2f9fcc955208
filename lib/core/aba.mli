(** High-level API: pick a protocol stack and run binary agreement.

    This is the quickstart surface of the library.  Each {!spec} names one of
    the paper's end-to-end constructions (framework x BCA implementation x
    coin); {!run} simulates an honest cluster of [n] parties under a seeded
    random asynchronous schedule and returns the agreed value together with
    execution statistics.

    For adversarial schedules, faulty parties, lockstep round accounting, or
    driving the protocols message by message, use the underlying modules
    directly ({!Aa}, the BCA implementations, and
    [Bca_netsim]); the [bca_adversary] and [bca_experiments] libraries show how. *)

(** The assembled stacks, exposed for callers that need message-level
    access (tracing, custom fault injection, adversaries). *)
module Crash_strong_stack : module type of Aa.Make (Aa.Strong (Bca_crash))

module Crash_weak_stack : module type of Aa.Make (Aa.Graded (Gbca_crash))

module Byz_strong_stack : module type of Aa.Make (Aa.Strong (Bca_byz))

module Byz_weak_stack : module type of Aa.Make (Aa.Graded (Gbca_byz))

module Byz_tsig_stack : module type of Aa.Make (Aa.Strong (Bca_tsig))

(** Appendix G.1's AA-1/2-EVBCA-Byz (no {!spec}: it is measured by the
    Table 2 and ablation harnesses), and its fresh-round ablation
    baseline. *)
module Byz_ev_stack : module type of Aa.Make (Aa.Ev)

module Byz_ev_fresh_stack : module type of Aa.Make (Aa.Ev_fresh)

(** The pre-assembled protocol stacks (see the paper's Table 1 and 2 rows). *)
type spec =
  | Crash_strong
      (** Algorithm 1 + Algorithm 3 + strong coin: ACA, [n >= 2t+1],
          expected 7 broadcasts (Theorem 4.2) *)
  | Crash_weak of float
      (** Algorithm 2 + Algorithm 5 + epsilon-good coin: ACA, [n >= 2t+1],
          expected 3/eps + 4 broadcasts (Theorem 5.2) *)
  | Crash_local
      (** [Crash_weak] with the local coin (epsilon = 2^-n): the O(2^n)
          improvement over Ben-Or/Aguilera-Toueg of Table 1 *)
  | Byz_strong
      (** Algorithm 1 + Algorithm 4 + strong [t]-unpredictable coin: ABA,
          [n >= 3t+1], expected 17 broadcasts (Theorem 4.11) *)
  | Byz_weak of float
      (** Algorithm 2 + Algorithm 6 + epsilon-good coin: ABA, [n >= 3t+1],
          expected 6/eps + 6 broadcasts (Theorem 5.4) *)
  | Byz_tsig
      (** Algorithm 1 + Algorithm 7 + strong [2t]-unpredictable coin +
          threshold signatures: ABA, [n >= 3t+1] (Theorem 6.2) *)

val pp_spec : Format.formatter -> spec -> unit

val default_coin_degree : spec -> t:int -> int
(** The coin unpredictability degree each theorem assumes: [2t] for
    [Byz_tsig], [t] otherwise. *)

val spec_mode : spec -> [ `Crash | `Byz ]
(** The fault model of the stack: which resilience bound applies and which
    fault behaviours (corruption) a harness may inject against it. *)

val spec_commits_on_coin : spec -> bool
(** Whether the stack's framework is Algorithm 1 (commit only when the BCA
    decision matches the round coin) - the stacks for which a monitor may
    check a commit against the coin value at the commit round.  Graded
    (Algorithm 2) stacks commit at grade 2 without consulting the coin. *)

type result = {
  value : Bca_util.Value.t;  (** the agreed value *)
  commits : Bca_util.Value.t array;  (** per-party committed values *)
  deliveries : int;  (** messages delivered until global termination *)
  rounds : int;  (** highest BCA-coin round reached by any party *)
}

val run :
  ?seed:int64 ->
  spec ->
  cfg:Types.cfg ->
  inputs:Bca_util.Value.t array ->
  (result, string) Stdlib.result
(** Simulate an all-honest cluster to termination under a random
    asynchronous schedule.  [inputs] must have length [cfg.n].  Errors
    report resilience violations or (never expected) liveness failures. *)

type party = {
  committed : unit -> Bca_util.Value.t option;
  commit_round : unit -> int option;
  round : unit -> int;
  phase : unit -> string;
      (** current round's (G)BCA phase label (see [Bca_intf.BCA.phase]) *)
}
(** One party's protocol state, erased of its stack-specific type: the
    accessors a generic harness (chaos campaign, invariant monitor,
    observability probe) needs. *)

type 'r driver = {
  drive :
    'm.
    coin:Bca_coin.Coin.t ->
    wire:'m Bca_wire.Wire.codec ->
    'm Bca_netsim.Async_exec.t ->
    party array ->
    'r;
}
(** A polymorphic execution driver: receives the assembled cluster (the
    coin oracle, the wire codec for the stack's message type, the executor
    with every party's initial sends already in flight, and the per-party
    state accessors) and runs it however it wants - custom schedulers,
    fault plans, observers, or real transports ([wire] is how a driver
    moves the otherwise-abstract ['m] messages across process
    boundaries; see [Bca_transport.Cluster]). *)

val run_custom :
  ?seed:int64 ->
  ?tracer:Bca_obs.Trace.t ->
  spec ->
  cfg:Types.cfg ->
  inputs:Bca_util.Value.t array ->
  driver:'r driver ->
  ('r, string) Stdlib.result
(** Assemble the stack for [spec] exactly as {!run} does (same coin seeds
    and per-party construction for a given [seed]) but hand control of the
    execution to [driver].  [Error] reports resilience violations or an
    [Invalid_argument] escaping the driver.

    With [tracer] (default [Bca_obs.Trace.null]), the executor is built with
    [Bca_netsim.Async_exec.create_traced] - so every network-level event of
    the run is recorded - and the coin emits [Coin_reveal] events on each
    party's first access to a round's coin.  Protocol milestones
    (round entries, phase quorums, commits) are polled by a [Probe] the
    driver installs; see {!Probe.create}. *)

(** {1 Multi-instance assembly}

    The pipelined cluster executor ([Bca_transport.Cluster]) runs B
    independent agreement instances of one stack concurrently, multiplexed
    over one transport.  All B instances share the message type and wire
    codec; each has its own seed, coin, inputs, parties and executor.
    {!with_spec} splits stack selection from instance construction so that
    a driver can assemble as many instances as it wants under one
    existential ['m]. *)

type 'm built = {
  b_coin : Bca_coin.Coin.t;
  b_exec : 'm Bca_netsim.Async_exec.t;
  b_parties : party array;
}
(** One assembled instance: the executor carries every party's initial
    sends in flight, exactly as [run_custom] hands its driver. *)

type 'r spec_handler = {
  handle :
    'm.
    wire:'m Bca_wire.Wire.codec ->
    mk_instance:(seed:int64 -> inputs:Bca_util.Value.t array -> 'm built) ->
    'r;
}
(** Receives the stack's wire codec and an instance factory.  [mk_instance]
    reproduces [run_custom]'s assembly byte for byte for a given seed -
    same coin seed derivation, same threshold-key setup, same per-party
    construction - and raises [Invalid_argument] on a bad input vector
    (caught by {!with_spec}). *)

val with_spec :
  ?tracer:Bca_obs.Trace.t ->
  spec ->
  cfg:Types.cfg ->
  handler:'r spec_handler ->
  ('r, string) Stdlib.result
(** Resolve [spec] to its stack (checking resilience) and hand the handler
    the means to build instances.  {!run_custom} is the one-instance
    wrapper; [run_custom_many] the B-instance one. *)

type 'm instance = {
  i_id : int;  (** index in the [seeds] array - the wire instance id *)
  i_seed : int64;
  i_coin : Bca_coin.Coin.t;
  i_exec : 'm Bca_netsim.Async_exec.t;
  i_parties : party array;
}

type 'r many_driver = {
  drive_many : 'm. wire:'m Bca_wire.Wire.codec -> 'm instance array -> 'r;
}

val run_custom_many :
  ?tracer:Bca_obs.Trace.t ->
  spec ->
  cfg:Types.cfg ->
  seeds:int64 array ->
  inputs:Bca_util.Value.t array array ->
  driver:'r many_driver ->
  ('r, string) Stdlib.result
(** Assemble [Array.length seeds] independent instances of the same stack
    (instance [k] built exactly as [run_custom ~seed:seeds.(k)
    ~inputs:inputs.(k)] would) and hand them all to the driver.  [Error] on
    zero instances, mismatched array lengths, a bad input vector, or a
    resilience violation. *)
