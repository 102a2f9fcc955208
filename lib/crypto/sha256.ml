(* SHA-256 with two block kernels and one copy of the padding.  The
   portable kernel is OCaml over 63-bit native ints: every working word is
   kept as a clean 32-bit value (bits 32.. zero) between steps, so a
   rotation is two shifts and the three-rotation sigmas need a single mask.
   Its message schedule lives in one 64-int work array per digest; the eight
   working variables are non-escaping refs, which ocamlopt keeps in
   registers.  The other kernel is the C stub over the x86-64 SHA
   extensions ([sha256_stubs.c]), used when CPUID reports them.  Both fold
   whole 64-byte blocks into the same chaining state, an [int array] of
   eight 32-bit words. *)

let size = 32

let mask = 0xFFFF_FFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

let init =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
     0x5be0cd19 |]

(* One 64-byte block of [s] at [off] folded into the chaining state [h]. *)
let compress h w s off =
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3) in
    let s1 = ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e and av = !a in
    let s1 =
      ((ev lsr 6) lor (ev lsl 26)) lxor ((ev lsr 11) lor (ev lsl 21))
      lxor ((ev lsr 25) lor (ev lsl 7))
    in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    let t1 = !hh + (s1 land mask) + ch + k.(i) + w.(i) in
    let s0 =
      ((av lsr 2) lor (av lsl 30)) lxor ((av lsr 13) lor (av lsl 19))
      lxor ((av lsr 22) lor (av lsl 10))
    in
    let bv = !b and cv = !c in
    let maj = (av land bv) lxor (av land cv) lxor (bv land cv) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask;
    d := cv;
    c := bv;
    b := av;
    a := (t1 + (s0 land mask) + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* The [n] blocks of [s] from [off], folded into [h], with [w] as the
   message-schedule work array. *)
let ocaml_blocks w h s off n =
  for blk = 0 to n - 1 do
    compress h w s (off + (blk * 64))
  done

external x86_available : unit -> bool = "bca_sha256_x86_available"

external x86_blocks : int array -> string -> int -> int -> unit = "bca_sha256_x86_blocks"
[@@noalloc]

let digest_with blocks s =
  let h = Array.copy init in
  let len = String.length s in
  let full = len / 64 in
  blocks h s 0 full;
  (* the tail, the 0x80 marker and the 64-bit bit length: one block, or
     two when fewer than 9 bytes are left after the tail *)
  let rest = len - (full * 64) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s (full * 64) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.mul (Int64.of_int len) 8L);
  blocks h (Bytes.unsafe_to_string tail) 0 (tail_len / 64);
  let out = Bytes.create size in
  Array.iteri (fun i x -> Bytes.set_int32_be out (4 * i) (Int32.of_int x)) h;
  Bytes.unsafe_to_string out

(* read once, at module initialisation *)
let has_x86_sha = x86_available ()

(* one work array per digest, shared by its whole blocks and its tail *)
let ocaml_digest s = digest_with (ocaml_blocks (Array.make 64 0)) s

let digest = if has_x86_sha then digest_with x86_blocks else ocaml_digest

let kernels = ("ocaml", ocaml_digest) :: (if has_x86_sha then [ ("x86-sha", digest) ] else [])

let to_hex s =
  let hex = "0123456789abcdef" in
  String.init
    (2 * String.length s)
    (fun i ->
      let byte = Char.code s.[i / 2] in
      hex.[if i land 1 = 0 then byte lsr 4 else byte land 15])
