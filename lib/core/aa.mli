(** The agreement loop of Algorithms 1 (AA-1/2) and 2 (AA-epsilon), and of
    the Appendix G.1 EVBCA-Byz variant, written once.

    Every stack proceeds in rounds of one (G)BCA instance followed by a
    common-coin flip; the round's decision and coin then either commit a
    value or only set the next estimate.  What differs between the
    algorithms is a {!ROUND}: the per-round instance, the rule mapping its
    decision and the coin to an {!outcome}, and (for EVBCA-Byz) how the next
    round's instance is started and how late approvals are carried forward.

    Algorithm 1 ({!Strong}), with a strong coin:

    - BCA decided [v] and the coin equals [v]: commit [v];
    - BCA decided [v] but the coin differs: keep [v] as the next estimate;
    - BCA decided bottom: adopt the coin as the next estimate.

    Binding is what makes this adaptively secure: by the time the first
    honest party finishes its BCA (and hence before a [>= t]-unpredictable
    coin can be revealed), the adversary is already bound to the only
    non-bottom value the round can produce, so each round has probability at
    least 1/2 of making progress (Theorem 3.3 / 3.5).  Plugging in
    {!Bca_byz} yields ABA for [n >= 3t + 1] (Theorem 3.3); {!Bca_crash}
    yields ACA for [n >= 2t + 1] (Theorem 3.5); {!Bca_tsig} yields the
    authenticated protocol of Theorem 6.2's framework.

    Algorithm 2 ({!Graded}), with an epsilon-good coin:

    - grade 2: commit the value (graded agreement guarantees everyone else
      holds it at grade >= 1 and commits next round);
    - grade 1: adopt the value, do not commit;
    - grade 0 (bottom): adopt the coin.

    Graded binding makes the round succeed with probability >= epsilon even
    against an adaptive adversary: the bound value is fixed before the first
    coin access, and with probability epsilon the coin lands on its
    complement at every honest party (Theorem 3.6 / 3.7), after which
    Lemma C.2 commits everyone in one more round.  Works with any
    epsilon-good coin, including the strong coin (epsilon = 1/2) and the
    local coin (epsilon = 2^-n).

    Termination layer (Section 3, "a note on termination"), shared by every
    stack: a committing party broadcasts [Committed v].  In [`Crash] mode
    one such message allows a party to commit, rebroadcast, and terminate.
    In [`Byz] mode a party commits at [t + 1] matching messages and
    terminates at [2t + 1].

    {!Aa_ev_tsig} is not an instance: its termination layer is a
    self-certifying [Decide] message rather than a [Committed] quorum. *)

type outcome =
  | Commit of Bca_util.Value.t  (** the next estimate, and commit it *)
  | Adopt of Bca_util.Value.t  (** the next estimate only *)

(** One round of the loop: a (G)BCA instance plus the rule that turns its
    decision and the round's coin into an {!outcome}. *)
module type ROUND = sig
  type params
  (** Per-instance construction parameters. *)

  type msg

  val pp_msg : Format.formatter -> msg -> unit

  type t

  type decision

  val create : params -> me:Types.pid -> t

  val start : t -> input:Bca_util.Value.t -> msg list
  (** Start the round-1 instance. *)

  val start_next : prev:t -> decision -> coin:Bca_util.Value.t -> t -> input:Bca_util.Value.t -> msg list
  (** Start the next round's instance with the new estimate, given the
      round just finished: its instance, decision and coin value. *)

  val handle : t -> from:Types.pid -> msg -> msg list

  val decision : t -> decision option

  val phase : t -> string
  (** See [Bca_intf.BCA.phase]. *)

  val outcome : decision -> coin:Bca_util.Value.t -> outcome

  val catch_up : (t -> coin:Bca_util.Value.t -> next:t -> msg list) option
  (** A standing rule, run after every delivered round message: for each
      finished round, oldest first, given its instance and coin value, the
      messages its successor [next] sends.  [None] for rounds that carry
      nothing forward. *)
end

(** Algorithm 1: commit when the BCA decision equals the coin. *)
module Strong (B : Bca_intf.BCA) :
  ROUND
    with type params = B.params
     and type msg = B.msg
     and type t = B.t
     and type decision = Types.cvalue

(** Algorithm 2: commit at grade 2. *)
module Graded (G : Bca_intf.GBCA) :
  ROUND
    with type params = G.params
     and type msg = G.msg
     and type t = G.t
     and type decision = Types.gdecision

(** Algorithm 1 over {!Evbca_byz} (Appendix G.1, Theorem 4.10: expected 13
    broadcasts with a strong 2t-unpredictable coin).  Each round's instance
    is started with the context the optimizations need: the previous
    round's coin value, whether it was approved, and whether this party
    decided bottom or committed.  Optimization 1 is also a standing rule:
    whenever a past round's approved values gain that round's coin value
    (late echo arrivals), the approval propagates into the following round.
    Correctness rests on external validity (Theorem G.3) rather than plain
    validity. *)
module Ev :
  ROUND
    with type params = Types.cfg
     and type msg = Evbca_byz.msg
     and type t = Evbca_byz.t
     and type decision = Types.cvalue

(** {!Ev} with every round started fresh and nothing carried forward:
    Algorithm 4 inside Algorithm 1 - the ablation baseline the
    optimizations are measured against. *)
module Ev_fresh :
  ROUND
    with type params = Types.cfg
     and type msg = Evbca_byz.msg
     and type t = Evbca_byz.t
     and type decision = Types.cvalue

(** An assembled agreement stack. *)
module type S = sig
  type inst_params
  type inst_msg
  type inst

  type msg =
    | Bca of int * inst_msg  (** round-tagged (G)BCA instance message *)
    | Committed of Bca_util.Value.t  (** termination-layer broadcast *)

  val pp_msg : Format.formatter -> msg -> unit

  type params = {
    cfg : Types.cfg;
    mode : [ `Crash | `Byz ];  (** termination-layer thresholds *)
    coin : Bca_coin.Coin.t;  (** the round coin the round rule assumes *)
    bca_params : round:int -> inst_params;  (** per-round instance parameters *)
  }

  type t

  val create : params -> me:Types.pid -> input:Bca_util.Value.t -> t * msg list
  (** Start the agreement; returns the round-1 broadcasts. *)

  val handle : t -> from:Types.pid -> msg -> msg list

  val committed : t -> Bca_util.Value.t option
  (** The committed (decided) value, once any. *)

  val terminated : t -> bool

  val current_round : t -> int
  (** The round this party is currently executing (1-based). *)

  val est : t -> Bca_util.Value.t
  (** The party's current estimate - protocol state is visible to the
      adaptive adversary (Section 2), so attack drivers may read it. *)

  val commit_round : t -> int option
  (** The round in which this party committed, for round accounting. *)

  val node : t -> msg Bca_netsim.Node.t
  (** Wrap as a simulator node. *)

  val instance : t -> round:int -> inst option
  (** Read a round's instance - test oracles and adversaries only. *)

  val current_phase : t -> string
  (** The phase label of the current round's instance; ["init"] before the
      instance exists.  Observability hook. *)
end

module Make (R : ROUND) :
  S with type inst_params = R.params and type inst_msg = R.msg and type inst = R.t
