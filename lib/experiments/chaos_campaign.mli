(** Chaos Monte-Carlo campaign: randomized fault plans against every stack.

    Each run derives, from one 64-bit seed, the party inputs, a random
    [Bca_adversary.Chaos] fault plan (within the stack's fault model and
    resilience bound), and the chaos event stream; executes the stack under
    that plan with a [Bca_netsim.Monitor] attached; and reports any
    agreement / validity / binding violation together with the seed and the
    serialized plan, so a failure replays exactly.  Runs fan out over
    domains through {!Mc.map}, so campaign results are bit-identical for
    any domain count.

    Safety must hold under {e every} plan.  Liveness legitimately may not:
    plans may drop honest messages within the fairness budget and these
    protocols never retransmit, so runs that fail to commit are counted as
    [`Stalled] rather than as violations (see DESIGN.md, "Chaos fault
    model"). *)

type outcome = [ `Committed | `Stalled ]

type run_report = {
  run_seed : int64;  (** replay key: everything derives from this *)
  plan : Bca_adversary.Chaos.plan;
  outcome : outcome;  (** [`Committed]: every live honest party decided *)
  deliveries : int;
  chaos : Bca_adversary.Chaos.stats;
  violations : Bca_netsim.Monitor.violation list;
}

val safety_violations : run_report -> Bca_netsim.Monitor.violation list
(** The violations excluding [Stalled] watchdog flags. *)

val pp_run_report : Format.formatter -> run_report -> unit
(** Human-readable reproducer: seed, plan, outcome, violations. *)

type stack_report = {
  stack : string;
  runs : int;
  committed : int;
  stalled : int;
  failures : run_report list;  (** runs with at least one safety violation *)
}

val six_stacks : (string * Bca_core.Aba.spec * Bca_core.Types.cfg) list
(** The paper's six end-to-end constructions at their smallest resilient
    configurations: crash stacks at n=5, t=2; Byzantine stacks at n=4,
    t=1. *)

val run_once :
  ?tracer:Bca_obs.Trace.t ->
  ?kills:int ->
  spec:Bca_core.Aba.spec ->
  cfg:Bca_core.Types.cfg ->
  seed:int64 ->
  unit ->
  run_report
(** One seeded chaos run.  The fault plan keeps crashes plus corrupted
    parties within [cfg.t]; corruption is drawn only for Byzantine-model
    stacks.  [kills] (default 0) additionally draws up to that many
    kill/restart faults ([Bca_adversary.Chaos.kill]) against honest
    parties: each victim is SIGKILL-modelled mid-run and later revived
    with exactly its pre-kill state, and the monitor holds it to agreement
    and validity like any other honest party - the simulated counterpart
    of the cluster supervisor's SIGKILL + [--recover] cycle.  With
    [tracer] (default disabled) the full execution is recorded: network
    events from the executor, coin reveals, protocol milestones from a
    [Bca_core.Probe], and monitor violations. *)

val run_stack :
  ?domains:int ->
  ?kills:int ->
  name:string ->
  spec:Bca_core.Aba.spec ->
  cfg:Bca_core.Types.cfg ->
  runs:int ->
  seed:int64 ->
  unit ->
  stack_report
(** [runs] seeded chaos runs of one stack via {!Mc.map}. *)

val run_all :
  ?domains:int -> ?kills:int -> runs:int -> seed:int64 -> unit -> stack_report list
(** The full campaign over {!six_stacks}, [runs] plans per stack; stack
    [i] uses root seed [seed + i] so adding a stack never reshuffles the
    others' plans. *)

val broken_run : ?tracer:Bca_obs.Trace.t -> seed:int64 -> unit -> run_report
(** Monitor self-test: a crash/strong cluster with an injected safety bug
    (party 0 equivocates the termination layer, telling one peer
    [committed(0)] and another [committed(1)]).  The monitor must flag an
    agreement violation; the report carries the reproducing seed and
    plan.  With [tracer] the violating execution is recorded and can be
    re-executed bit-identically by {!replay_broken}. *)

val replay_broken :
  seed:int64 ->
  Bca_obs.Event.timed array ->
  (run_report * Bca_obs.Event.timed array, string) result
(** Replay a {!broken_run} capture: rebuild the same cluster from [seed]
    (the scenario), re-apply the recorded action events
    ([Bca_netsim.Async_exec.replay]), and return the reproduced report
    together with the freshly recorded trace.  For a faithful capture the
    returned trace equals the original event-for-event, violation
    included; the report's [chaos] counters are zero (the chaos engine's
    decisions are baked into the action log, so it does not run during
    replay).  [Error] means the log does not fit the rebuilt scenario -
    wrong seed or a tampered capture. *)
