(** The one JSON string escaper of the libraries.

    Every JSON the libraries emit (trace events, coverage maps, metrics
    aggregates, lint reports) escapes its string bodies here.  Event
    records are embedded in WAL files, so the bytes this produces are
    part of the on-disk format and must not change. *)

val escape : Buffer.t -> string -> unit
(** Append [s] to the buffer as the body of a JSON string literal,
    without the quotes: the quote and backslash are backslash-escaped,
    newline, tab and carriage return take their short escapes, and the
    other control characters become [\u00XX]. *)
