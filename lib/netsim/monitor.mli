(** Runtime invariant monitor for binary-agreement executions.

    Checks safety incrementally {e during} an execution instead of once at
    the end, so a violation is reported at the delivery that caused it
    (together with how many deliveries in it happened) - the information a
    chaos campaign needs to shrink and replay a failure.

    The monitor is protocol-agnostic: it reads party state through
    callbacks ([decision], [commit_round], ...) and is driven by calling
    {!on_delivery} from an {!Async_exec.set_observer} hook (or use
    {!attach}).  Checked invariants:

    - {b Agreement}: any two honest decisions are equal.  Crashed-but-honest
      parties count (uniform agreement): a decision made before crashing
      must agree too.
    - {b Validity}: when all honest inputs are one value [u], every honest
      decision is [u].
    - {b Binding / coin consistency} (optional, [coin_value]): the {e first}
      honest decision observed must equal that party's coin at its commit
      round.  The first commit system-wide is necessarily a coin-path
      commit - Algorithm 1 commits only on a coin match, and
      termination-layer commits presuppose an earlier committer - so this
      is the observable footprint of the paper's binding property: an
      execution in which the adversary un-binds the round value after the
      coin reveal surfaces as a first commit disagreeing with the coin, or
      as an agreement violation one round later.  Later deciders are not
      coin-checked: a laggard adopting a relayed [committed(v)] records its
      own (earlier) round, whose coin may legitimately differ.  Pass it
      only for stacks with that commit rule (AA-1/2 over BCA); graded
      stacks commit at grade 2 without consulting the coin.
    - {b Liveness watchdog} (optional, [progress]): if [stall_window]
      deliveries elapse with no increase of the [progress] measure, the
      execution is flagged [Stalled].  Under a fair scheduler with reliable
      links this indicates a liveness bug; under chaos plans that drop
      honest traffic it flags the run for separate accounting (dropping
      un-retransmitted messages legitimately voids the liveness
      guarantee). *)

type pid = int

type violation =
  | Agreement of { p : pid; vp : Bca_util.Value.t; q : pid; vq : Bca_util.Value.t }
      (** honest parties [p] and [q] decided different values *)
  | Validity of { p : pid; decided : Bca_util.Value.t; unanimous : Bca_util.Value.t }
      (** unanimous honest input [unanimous], yet [p] decided otherwise *)
  | Binding of { p : pid; round : int; decided : Bca_util.Value.t; coin : Bca_util.Value.t }
      (** [p] committed [decided] in [round] although its coin said [coin] *)
  | Stalled of { deliveries : int; window : int }
      (** no progress for [window] deliveries (at delivery [deliveries]) *)

val pp_violation : Format.formatter -> violation -> unit

type t

val create :
  n:int ->
  ?honest:(pid -> bool) ->
  inputs:Bca_util.Value.t array ->
  decision:(pid -> Bca_util.Value.t option) ->
  ?commit_round:(pid -> int option) ->
  ?coin_value:(round:int -> pid:pid -> Bca_util.Value.t) ->
  ?progress:(unit -> int) ->
  ?stall_window:int ->
  ?tracer:Bca_obs.Trace.t ->
  unit ->
  t
(** [honest] defaults to everyone (crash faults are honest; exclude only
    Byzantine/corrupted parties).  [inputs] are the honest input values
    (slots of non-honest parties are ignored).  [progress] must be a
    monotone measure of execution progress (e.g. decisions made plus rounds
    entered); [stall_window] defaults to 10_000.  With [tracer] (default
    [Bca_obs.Trace.null]) every violation is additionally emitted as a
    [Violation] trace event at the logical time it was detected. *)

val on_delivery : t -> unit
(** Record one delivery and re-check the invariants incrementally: only
    parties that decided since the last call are (re-)examined, so a call
    is O(n) with a tiny constant. *)

val attach : t -> 'm Async_exec.t -> unit
(** Install {!on_delivery} as the execution's observer (replaces any
    observer set before; callers needing both should chain manually). *)

val final_check : t -> unit
(** Re-check decisions once more without counting a delivery.  Call after
    the run ends: the executor notifies observers {e before} the receiving
    node processes an envelope, so a decision caused by the very last
    delivery is only visible to this call. *)

val violations : t -> violation list
(** All violations found so far, in detection order.  Each invariant class
    is reported at most once per offending party pair/party. *)

val ok : t -> bool
(** No violations (stalls included) so far. *)

val safety_ok : t -> bool
(** No agreement / validity / binding violation so far ([Stalled] is
    ignored: a liveness flag, not a safety one). *)

val first_decision : t -> (pid * Bca_util.Value.t * int) option
(** The first honest decision observed: party, value, and the number of
    deliveries that had happened when it was detected. *)

val deliveries_seen : t -> int
(** Number of {!on_delivery} calls so far. *)

val near_misses : t -> (string * int) list
(** End-of-run gauges of proximity to a violation, as
    [(counter, value)] pairs in the shared coverage vocabulary
    ({!Bca_obs.Coverage}): [("nm:decided", k)] honest deciders so far,
    [("nm:commit-spread", d)] the span between the smallest and largest
    honest commit round (present only when two deciders disagree on the
    round - the direct precursor of a cross-round agreement violation),
    and [("nm:stall-frac", q)] the highest quarter of the stall window the
    watchdog counter reached ([4] = it fired).  Sorted by counter name;
    call after {!final_check}. *)

(** Multivalued analogue of the binary monitor, for executions whose
    decisions are strings - multivalued decisions
    ({!Bca_rsm.Acs.decided}) or committed log prefixes.  Checks:

    - {b Agreement}: any two honest decisions are byte-equal.
    - {b Validity}: when every honest party proposed the same string, any
      honest decision equals it (violations are traced as kinds
      ["magreement"] / ["mvalidity"] to keep them distinct from the binary
      invariants in coverage maps).
    - {b Liveness watchdog} (optional, [progress]): as in the binary
      monitor. *)
module Multi : sig
  type violation =
    | Agreement of { p : pid; vp : string; q : pid; vq : string }
        (** honest parties [p] and [q] decided different values *)
    | Validity of { p : pid; decided : string }
        (** unanimous honest proposal, yet [p] decided something else *)
    | Stalled of { deliveries : int; window : int }
        (** no progress for [window] deliveries (at delivery [deliveries]) *)

  val pp_violation : Format.formatter -> violation -> unit

  type t

  val create :
    n:int ->
    ?honest:(pid -> bool) ->
    proposals:string array ->
    decision:(pid -> string option) ->
    ?progress:(unit -> int) ->
    ?stall_window:int ->
    ?tracer:Bca_obs.Trace.t ->
    unit ->
    t
  (** As the binary {!val:create}, with string [proposals] in place of
      binary [inputs] and no coin/commit-round hooks (selection in the
      multivalued layer is deterministic, not coin-driven). *)

  val on_delivery : t -> unit
  val attach : t -> 'm Async_exec.t -> unit
  val final_check : t -> unit
  val violations : t -> violation list
  val ok : t -> bool

  val safety_ok : t -> bool
  (** No agreement / validity violation ([Stalled] ignored). *)

  val first_decision : t -> (pid * string * int) option
end
