(** Appendix G.1: Externally Valid BCA for Byzantine faults (EVBCA-Byz).

    Algorithm 4 with the four round-coupling optimizations that reduce
    AA-1/2's broadcasts from 17 to 13 when the coin is 2t-unpredictable
    (Theorem 4.10 / Lemma G.15):

    + a value equal to the previous round's coin that was in the party's
      previous [approvedVals] is approved automatically;
    + an automatically approved value triggers the party's echo2 vote
      immediately;
    + a party that decided bottom skips its echo broadcast entirely (its
      next-round value is the coin, which rule 1 already approves);
    + a party that decided the coin's value (i.e. committed) broadcasts its
      echo2 and echo3 together at the start of the next round.

    The price is validity: a round can legitimately decide a value no honest
    party input this round, as long as the value is {e externally valid}
    (Definition G.2) - it was the previous coin and could have been adopted.
    {!Aa.Ev} supplies the per-round context; on round 1 ({!fresh}) the
    protocol is exactly Algorithm 4. *)

type msg =
  | MEcho of Bca_util.Value.t
  | MEcho2 of Bca_util.Value.t
  | MEcho3 of Types.cvalue

val pp_msg : Format.formatter -> msg -> unit

(** How the AA round this instance belongs to was entered. *)
type start_ctx = {
  auto_approve : Bca_util.Value.t option;
      (** optimization 1: the previous coin value, when it was in the
          previous round's [approvedVals] *)
  skip_echo : bool;  (** optimization 3: the previous decision was bottom *)
  early_echo3 : Bca_util.Value.t option;
      (** optimization 4: the previous decision equalled the coin *)
}

val fresh : start_ctx
(** Round-1 context: no optimizations apply. *)

type t

val create : Types.cfg -> me:Types.pid -> t

val start : t -> input:Bca_util.Value.t -> ctx:start_ctx -> msg list

val handle : t -> from:Types.pid -> msg -> msg list

val decision : t -> Types.cvalue option

val phase : t -> string
(** The phase label of [Bca_intf.BCA.phase], on Algorithm 4's ladder. *)

val approved : t -> Bca_util.Value.t list

val echo3_sent : t -> Types.cvalue option

val external_approve : t -> Bca_util.Value.t -> msg list
(** Optimization 1 applied after [start]: the previous round's
    [approvedVals] gained the previous coin value only after this round
    began, so the automatic approval arrives late.  Approves the value now
    (voting with echo2 if the vote is still unused, per optimization 2) and
    re-scans the clauses. *)
