(** SHA-256 (FIPS 180-4), with two block kernels behind one padding.

    Whole 64-byte blocks go to one of two compress kernels: the x86-64 SHA
    extensions ([sha256rnds2]/[sha256msg1]/[sha256msg2], a C stub) when
    CPUID reports them together with SSSE3 and SSE4.1, and a portable OCaml
    kernel otherwise (other CPUs and architectures).  The CPU is asked
    once, at module initialisation; nothing else chooses the kernel.  The
    padding and finalisation are OCaml and shared, and both kernels give
    the same bytes, so every digest is the same on every host.

    The digest a hash-based reliable broadcast echoes in place of the
    payload ({!Bca_baselines.Bracha}): unlike the simulated schemes beside
    it, collision resistance is load-bearing here - a Byzantine sender that
    could find two payloads with one digest could make honest parties
    deliver different payloads. *)

val size : int
(** Digest length in bytes: 32. *)

val digest : string -> string
(** The 32-byte raw digest of the whole string. *)

val kernels : (string * (string -> string)) list
(** Every kernel this host can run, by name, as a full digest function:
    ["ocaml"] always, then ["x86-sha"] where the CPU has the SHA
    extensions.  [digest] is the last one.  For tests that compare the
    kernels; it selects nothing. *)

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any string), two characters per
    byte - the [sha256sum] rendering. *)
