(** Asynchronous Common Subset in the HoneyBadger style, built on the
    paper's ABA, and the multivalued agreement selected from it.

    This is the workload Section 1.2 motivates: HoneyBadger, BEAT and
    DUMBO-MVBA all consume one binary agreement instance per proposer and
    would inherit this paper's adaptive security and round complexity.

    Construction ([n >= 3t + 1]):

    + each party reliably broadcasts its proposal (one [Bca_baselines.Bracha]
      instance per proposer);
    + party [i] inputs 1 to ABA_j as soon as RBC_j delivers, and 0 to every
      not-yet-started ABA once [n - t] ABAs have decided 1;
    + the output is the set of proposals whose ABA decided 1 - guaranteed to
      contain at least [n - t] slots, to be common to all honest parties,
      and to be deliverable (an accepted slot's RBC eventually delivers
      everywhere).

    Each ABA slot runs AA-1/2 over BCA-Byz with its own strong coin.
    Messages for a slot whose local input is not yet known are buffered and
    replayed - an extra network delay, which asynchrony permits.

    The broadcasts are hash-based ({!Bca_baselines.Bracha}): a proposal
    travels once, in its proposer's [Initial], and echoes and readies carry
    its SHA-256 digest.  A party that reaches a ready quorum without the
    payload pulls it with [Fetch], so a terminated instance keeps serving
    [Fetch] (and ignores everything else): a lagging party may need a
    payload that only terminated parties hold.

    {b What a terminated instance keeps.}  Exactly what it can still be
    asked for: its {!output}, recorded at termination, and per slot the
    broadcast's pull state ({!Bca_baselines.Bracha.retire}: held payloads
    with their digests, requesters served, the delivered payload).  Every
    slot's ABA and its buffered traffic are dropped at termination, so a
    long log of finished instances costs its payloads, not its protocol
    history.

    {b Multivalued agreement} is a pure selection over that output, the
    Mizrahi Erbes-Wattenhofer reduction of multivalued agreement to
    crusader-style dissemination plus binary agreement: the Bracha
    echo/ready exchange is a crusader agreement per proposer (honest
    parties deliver one payload or nothing, never two), one binary slot
    per proposer fixes the common subset, and {!decided} picks the payload
    backing the most accepted slots.  Agreement follows because the subset
    and its payloads are identical everywhere.  Validity: if every honest
    party proposes [v], at least [t + 1] accepted slots carry [v] while any
    other payload backs at most [t], so [v] is decided; in general the
    decided value is always some party's proposal.  Ties break on the
    smaller {!digest}, then the smaller payload. *)

module Types = Bca_core.Types
module Aba_slot = Bca_core.Aba.Byz_strong_stack

type payload = string

val digest : payload -> int64
(** FNV-1a (64-bit) of the payload - the deterministic selection key.  Not
    a vote: the broadcasts agree on SHA-256 digests, this only orders the
    selection's ties.  Allocates nothing. *)

type msg =
  | Rbc of int * Bca_baselines.Bracha.msg  (** proposer slot *)
  | Aba of int * Aba_slot.msg

val pp_msg : Format.formatter -> msg -> unit

type params = {
  cfg : Types.cfg;
  coin_seed : int64;  (** seeds the per-slot strong coins *)
}

type t

val create : params -> me:Types.pid -> proposal:payload -> t * msg list
val handle : t -> from:Types.pid -> msg -> msg list
(** Once {!terminated}, only [Rbc (j, Fetch h)] gets an answer. *)

val output : t -> (int * payload) list option
(** [Some slots] once the common subset is decided and all accepted
    payloads are delivered: the accepted (proposer, payload) pairs, sorted
    by proposer.  Guaranteed identical at every honest party, and
    unchanged by termination. *)

val decided : t -> payload option
(** The multivalued decision: the plurality payload of {!output}, once
    that is decided. *)

val terminated : t -> bool

val node : t -> msg Bca_netsim.Node.t
