(** Algorithm 1 wired to {!Evbca_tsig}: the AA-1/2-EVBCA-TSig protocol of
    Appendix G.2 (Theorem 6.2: expected 9 broadcasts with a strong
    2t-unpredictable coin and a threshold-signature setup).

    Its own loop rather than an {!Aa.Make} instance, with two differences
    from {!Aa.Strong}:

    - a party that decided [val] while the coin disagreed enters the next
      round through [Carry], skipping the echo round (optimization 1);
    - commitment is propagated by a self-certifying designated message
      [Decide (r, v, sigma_echo3(r, v))] instead of plain committed
      messages: any party that receives it and sees [coin(r) = v] commits
      immediately, forwards it once, and terminates (optimization 2) - the
      certificate plus the coin value is proof enough, so one broadcast
      terminates everyone. *)

type msg =
  | Bca of int * Evbca_tsig.msg
  | Decide of int * Bca_util.Value.t * Bca_crypto.Threshold.signature

val pp_msg : Format.formatter -> msg -> unit

type params = {
  cfg : Types.cfg;
  coin : Bca_coin.Coin.t;  (** strong, degree >= 2t for the stated bound *)
  setup : Bca_crypto.Threshold.t;
  key : Bca_crypto.Threshold.key;
}

type t

val create : params -> me:Types.pid -> input:Bca_util.Value.t -> t * msg list
val handle : t -> from:Types.pid -> msg -> msg list
val committed : t -> Bca_util.Value.t option
val terminated : t -> bool
val current_round : t -> int
val commit_round : t -> int option
val est : t -> Bca_util.Value.t
val node : t -> msg Bca_netsim.Node.t
val instance : t -> round:int -> Evbca_tsig.t option
