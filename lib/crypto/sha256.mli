(** SHA-256 (FIPS 180-4), in pure OCaml.

    The digest a hash-based reliable broadcast echoes in place of the
    payload ({!Bca_baselines.Bracha}): unlike the simulated schemes beside
    it, collision resistance is load-bearing here - a Byzantine sender that
    could find two payloads with one digest could make honest parties
    deliver different payloads. *)

val size : int
(** Digest length in bytes: 32. *)

val digest : string -> string
(** The 32-byte raw digest of the whole string. *)

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any string), two characters per
    byte - the [sha256sum] rendering. *)
