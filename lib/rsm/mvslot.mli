(** The default binary-agreement slot under {!Mvba}: AA-1/2 over BCA-Byz
    with a strong per-slot coin - the same engine {!Bca_acs.Acs} runs, made
    a standalone module so {!Mvba.Make} can be instantiated with it (and so
    the wire codec can name its message variant).

    The single-constructor wrapper keeps the slot's message type an
    ordinary variant of this module, which is what the wire-coverage lint
    rule cross-checks against the codec in [lib/rsm/wirefmt.ml]. *)

module Types = Bca_core.Types
module Aba = Bca_core.Aba.Byz_strong_stack

type msg = Slot_aba of Aba.msg

val pp_msg : Format.formatter -> msg -> unit

type t

val create :
  cfg:Types.cfg ->
  coin_seed:int64 ->
  me:Types.pid ->
  input:Bca_util.Value.t ->
  t * msg list

val handle : t -> from:Types.pid -> msg -> msg list

val committed : t -> Bca_util.Value.t option
(** The slot's binary decision, once any. *)

val terminated : t -> bool
