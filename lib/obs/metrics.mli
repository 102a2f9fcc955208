(** Per-round / per-phase metrics aggregated over traced executions.

    {!Metrics} turns event streams ({!Event}) into the numbers the paper's
    analysis is phrased in: how many rounds executions take, how many
    deliveries each round costs, which protocol phases fire, and how far
    ahead of the first commit the round's coin was revealed - the ordering
    the binding property protects (Section 3 of the paper; cf. the
    per-round accounting of the related adaptive-adversary literature).

    A value of type {!t} is an immutable aggregate.  {!add_run} folds one
    complete run's event stream into it; {!merge} combines aggregates.

    {b Determinism contract.}  [merge] is associative and commutative, and
    [empty] is its identity - so folding per-run aggregates in {e any}
    grouping yields the same result.  This is what lets
    [Bca_experiments.Mc.map_fold] aggregate per-domain partial metrics in
    parallel without the domain count ever affecting a reported histogram
    (property-tested in [test/test_obs.ml]).

    All latencies are in {e deliveries} (the logical clock of
    {!Trace}), not wall time: wall time is an artifact of the simulator,
    delivery count is a property of the schedule. *)

type round_stats = {
  entries : int;  (** parties that entered this round *)
  deliveries : int;  (** deliveries while this was the highest round entered *)
  sends : int;  (** envelopes enqueued while this was the highest round *)
  drops : int;  (** envelopes dropped while this was the highest round *)
  commits : int;  (** commits recorded in this round *)
  coin_reveals : int;  (** first coin accesses for this round *)
}

type t

val empty : t
(** The identity of {!merge}: no runs, all counters zero. *)

val add_run : t -> Event.timed array -> t
(** Fold one run's complete event stream (as captured by one {!Trace})
    into the aggregate.  Within the stream, deliveries and sends are
    attributed to the highest round any party has entered at that moment
    (the {e system round}); a round's latency is the number of deliveries
    between its first [Round_enter] and the next round's. *)

val merge : t -> t -> t
(** Pointwise sum.  Associative, commutative, with {!empty} as identity. *)

val runs : t -> int
val sends : t -> int
val deliveries : t -> int
val drops : t -> int
val violations : t -> int

val decided_runs : t -> int
(** Runs in which at least one commit was recorded. *)

val per_round : t -> (int * round_stats) list
(** Per-round counters, sorted by round. *)

val phase_counts : t -> (string * int) list
(** How often each protocol phase quorum was met, sorted by phase name. *)

val rounds_histogram : t -> Bca_util.Histogram.t
(** Distribution of the first-commit round over runs. *)

val round_latency_histogram : t -> Bca_util.Histogram.t
(** Distribution of per-round latencies (deliveries from a round's first
    entry to the next round's first entry), over all completed rounds of
    all runs. *)

val coin_commit_gap_histogram : t -> Bca_util.Histogram.t
(** Distribution, over deciding runs, of the number of deliveries between
    the first reveal of the commit round's coin and the first commit -
    the observable window in which the paper's binding property is doing
    its work. *)

val tx : t -> int * int
(** Socket-transport frames and bytes sent ([Event.Transport] op ["tx"]).
    All transport aggregates are zero for purely simulated runs. *)

val rx : t -> int * int
(** Socket-transport frames and bytes received (op ["rx"]). *)

val resends : t -> int * int
(** Crash-recovery history resends (op ["resend"] from
    [Bca_transport.Cluster.serve]): how many HELLO-triggered (or
    rejoin-initiated) full-history replays happened, and the protocol
    bytes they pushed. *)

val recoveries : t -> int * int
(** WAL replays (op ["recover"]): recoveries observed and the valid WAL
    bytes they replayed. *)

val revives : t -> int
(** Dead peers resurrected by an inbound frame (op ["revive"] from
    [Bca_transport.Transport]) - a restarted process reconnecting after
    its peer had given it up. *)

val flush_bytes_histogram : t -> Bca_util.Histogram.t
(** Distribution of framed batch sizes in bytes, one sample per batcher
    flush (op ["flush"] from [Bca_transport.Batcher]). *)

val batch_occupancy_histogram : t -> Bca_util.Histogram.t
(** Distribution of records per batch frame (op ["batch"]) - how full the
    batches the flush policy produced actually were. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: totals, per-round table, phase counts, and the
    three distributions. *)

val to_json : t -> string
(** A self-contained JSON object (counters, per-round table, phase counts,
    and p50/p90/p99/max of the latency distributions), suitable for
    embedding in the benchmark report. *)
