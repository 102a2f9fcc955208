(** Simulated party interface.

    A node is a protocol party as seen by the executors: a mailbox handler
    producing outgoing messages, a termination flag, and an optional per-step
    tick used by Byzantine behaviours that act spontaneously.  Honest
    protocol parties are wrapped into nodes by the protocol modules; faulty
    parties (crashed, Byzantine) are just alternative node implementations,
    so the executors are entirely fault-model agnostic. *)

type pid = int
(** Party identifier, [0 .. n-1]. *)

type 'm emit =
  | Broadcast of 'm  (** send to all [n] parties, including self *)
  | Unicast of pid * 'm
      (** targeted send; honest parties in this paper only broadcast, but
          Byzantine behaviours equivocate by unicasting different payloads *)

type 'm t = {
  receive : src:pid -> 'm -> 'm emit list;
      (** Deliver one message; returns messages to send.  Called at most once
          per in-flight envelope, never after a crash. *)
  terminated : unit -> bool;
      (** True once the party has terminated the protocol (stopped for good,
          not merely decided).  Monotone: once it returns [true] it never
          returns [false] again.  The cluster runtime relies on this: it
          flushes a node's WAL tail and retires a pipelined instance the
          first time it reads [true], and never asks again. *)
  tick : step:int -> 'm emit list;
      (** Lockstep-only hook, invoked once at the start of every step; honest
          nodes return []. *)
}

val make :
  receive:(src:pid -> 'm -> 'm emit list) ->
  terminated:(unit -> bool) ->
  ?tick:(step:int -> 'm emit list) ->
  unit ->
  'm t
(** Smart constructor; [tick] defaults to producing nothing. *)

val silent : 'm t
(** A node that never reacts and is considered terminated: models a party
    that crashed before the protocol started. *)

val broadcast_only : ('m emit -> 'm option) -> 'm emit list -> 'm list
(** Helper for tests: project emits to broadcast payloads. *)
