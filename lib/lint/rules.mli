(** The shipped rule catalog.

    - [determinism]: wall clocks, environment-seeded RNG, unordered
      [Hashtbl] iteration and [Marshal] are forbidden in replay-critical
      code ([lib/]; the loopback simulator and wire layer must replay
      bit-identically from a seed).
    - [poly-compare]: structural [=], [<>], [compare], [min], [max] on
      syntactically non-primitive operands (constructor applications,
      protocol constructors, tuples, records); [compare] itself is
      always flagged.  Tag-only comparisons ([= None], [= \[\]],
      booleans, unit, nullary polymorphic variants) are allowed.
    - [quorum]: raw threshold arithmetic ([t + 1], [2*t + 1], [n - t])
      outside [lib/util/quorum.ml], which owns the named helpers.
    - [total-decoding]: [failwith], [assert false], [List.hd],
      [List.tl], [Option.get] and [Obj.magic] in wire-decode files;
      decoders must fail through typed [Malformed] errors.
    - [wire-coverage]: structural cross-check that every constructor of
      every stack message type referenced by [wirefmt.ml] (the functor
      applications it binds and their inner protocol modules, or the
      [M.msg] of a codec value annotated [M.msg Wire.codec] and every
      sibling [X.msg] it carries) occurs both as an encode pattern and as
      a decode construction. *)

val determinism : Lint.rule

val poly_compare : Lint.rule

val quorum : Lint.rule

val total_decoding : Lint.rule

val wire_coverage : Lint.rule

val all : Lint.rule list
(** Every shipped rule, in reporting order. *)
