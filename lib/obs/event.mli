(** The observability event taxonomy.

    Every interesting thing that happens during a simulated execution is one
    of these typed events: network-level actions the executor performs
    (send / deliver / drop / duplicate / redirect / swap / crash), protocol
    milestones observed by the driver probes (round entry, phase quorum,
    coin reveal, commit), and invariant violations flagged by the runtime
    monitor.

    Events are plain data.  A {!timed} event carries the logical timestamp
    at which it was recorded - the number of deliveries that had happened -
    so that per-round latency is measured in deliveries, the only clock an
    asynchronous adversary cannot manipulate.

    The {e action} subset ({!is_action}) is exactly the set of operations
    that determine an execution: protocols are deterministic state machines,
    so replaying the logged actions against a freshly built cluster
    reproduces the original run bit for bit (see
    [Bca_netsim.Async_exec.replay] and DESIGN.md section 10 for the
    determinism contract).

    Serialization is line-oriented JSON (JSONL): {!to_json} emits one
    self-contained object per event, {!of_json} parses it back; the codec
    round-trips every event exactly ([of_json (to_json e) = Ok e]). *)

type pid = int

type t =
  | Send of { eid : int; src : pid; dst : pid; depth : int }
      (** envelope [eid] entered the in-flight pool *)
  | Deliver of { eid : int; src : pid; dst : pid; depth : int }
      (** envelope [eid] was delivered (advances the logical clock) *)
  | Drop of { eid : int; src : pid; dst : pid }
      (** envelope [eid] was removed without delivery (omission fault) *)
  | Duplicate of { eid : int; copy : int }
      (** a copy of envelope [eid] entered the pool as envelope [copy] *)
  | Redirect of { eid : int; dst : pid }
      (** envelope [eid]'s destination was rewritten to [dst] *)
  | Swap of { eid1 : int; eid2 : int }
      (** the payloads of two in-flight envelopes were exchanged *)
  | Crash of { pid : pid }  (** party [pid] halted *)
  | Round_enter of { pid : pid; round : int }
      (** party [pid] started round [round] of the agreement loop *)
  | Quorum of { pid : pid; round : int; phase : string }
      (** party [pid]'s round-[round] (G)BCA instance met the quorum that
          completes [phase] (protocol-specific phase names, e.g. ["echo"],
          ["echo2"], ["decide"]) *)
  | Coin_reveal of { pid : pid; round : int; value : Bca_util.Value.t }
      (** party [pid] accessed round [round]'s common coin for the first
          time - the moment the paper's binding property must already hold *)
  | Commit of { pid : pid; round : int; value : Bca_util.Value.t }
      (** party [pid] committed [value] in round [round] *)
  | Violation of { kind : string; detail : string }
      (** the runtime monitor flagged an invariant violation *)
  | Transport of { pid : pid; peer : pid; op : string; bytes : int }
      (** a real-transport endpoint ([Bca_transport]) performed [op] toward
          [peer]: ["connect"], ["accept"], ["retry"], ["give_up"],
          ["close"], ["tx"] / ["rx"] (with the frame's byte count), or
          ["drop"] (frame discarded: corrupt stream or dead peer).  Not an
          action - real-network timing is outside the replay determinism
          contract *)
  | Slot_commit of { pid : pid; slot : int; txs : int }
      (** replica [pid] applied log slot [slot] ([txs] transactions) to its
          committed log - the replicated-log milestone ([Bca_rsm.Rsm]) *)
  | Buffer_drop of { pid : pid; epoch : int }
      (** replica [pid] shed a message for far-future epoch [epoch] instead
          of buffering it - the bounded ahead-of-window buffer at work *)

type timed = { ts : int; ev : t }
(** An event stamped with the logical time (deliveries so far) at which it
    was recorded.  The [ts] of a [Deliver] event is the 1-based index of
    that delivery; all events between two deliveries share the earlier
    delivery's timestamp. *)

val is_action : t -> bool
(** Whether the event is an executor action (deliver / drop / duplicate /
    redirect / swap / crash): the subset [Bca_netsim.Async_exec.replay]
    re-applies.  [Send] is {e not} an action - sends are consequences of
    deliveries and re-emerge deterministically during replay. *)

val equal : t -> t -> bool
val equal_timed : timed -> timed -> bool

val pp : Format.formatter -> t -> unit
val pp_timed : Format.formatter -> timed -> unit

val to_json : timed -> string
(** One-line JSON object (no trailing newline), e.g.
    [{"ts":12,"type":"deliver","eid":40,"src":1,"dst":2,"depth":3}]. *)

val of_json : string -> (timed, string) result
(** Parse one line produced by {!to_json}.  [Error] describes the first
    syntax or schema problem found. *)
