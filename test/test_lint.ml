(* Tests for the bca_lint static-analysis engine: every shipped rule must
   flag its known-bad fixture and pass its known-good twin, directory
   profiles must scope the rules, the suppression grammar must behave,
   and lib/ itself must lint clean. *)

module Lint = Bca_lint.Lint
module Rules = Bca_lint.Rules
module Flow = Bca_lint.Flow

(* ------------------------------------------------------------------ *)
(* Fixture plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_root () =
  let f = Filename.temp_file "bca_lint_fixture" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write_file ~root subpath content =
  let path = Filename.concat root subpath in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Lint a one-file (or multi-file) fixture tree and return the report. *)
let lint_fixture files =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter (fun (subpath, content) -> write_file ~root subpath content) files;
      Lint.run ~rules:Rules.all ~paths:[ root ] ())

let count_rule rule (report : Lint.report) =
  List.length
    (List.filter (fun (f : Lint.finding) -> String.equal f.rule rule) report.findings)

let check_flags ~rule ~subpath content =
  let report = lint_fixture [ (subpath, content) ] in
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s" rule subpath)
    true
    (count_rule rule report > 0);
  Alcotest.(check bool) "bad fixture makes the report fail" true (Lint.has_errors report)

let check_clean ~rule ~subpath content =
  let report = lint_fixture [ (subpath, content) ] in
  Alcotest.(check int)
    (Printf.sprintf "%s passes %s" rule subpath)
    0 (count_rule rule report)

(* ------------------------------------------------------------------ *)
(* Profiles                                                             *)
(* ------------------------------------------------------------------ *)

let test_profiles () =
  let is_strict p = match Lint.profile_of_path p with Lint.Strict -> true | _ -> false in
  let is_standard p = match Lint.profile_of_path p with Lint.Standard -> true | _ -> false in
  let is_relaxed p = match Lint.profile_of_path p with Lint.Relaxed -> true | _ -> false in
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " strict") true (is_strict p))
    [ "lib/core/bca_byz.ml"; "/abs/repo/lib/wire/get.ml"; "_build/default/lib/netsim/async.ml";
      "lib/transport/cluster.ml" ];
  Alcotest.(check bool) "lib/util standard" true (is_standard "lib/util/rng.ml");
  Alcotest.(check bool) "bench relaxed" true (is_relaxed "bench/main.ml");
  Alcotest.(check bool) "core outside lib relaxed" true (is_relaxed "tools/core.ml")

(* ------------------------------------------------------------------ *)
(* determinism                                                          *)
(* ------------------------------------------------------------------ *)

let test_determinism_flags () =
  check_flags ~rule:"determinism" ~subpath:"lib/core/x.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h\n";
  check_flags ~rule:"determinism" ~subpath:"lib/core/x.ml"
    "let f h = Hashtbl.fold (fun _ _ a -> a) h 0\n";
  check_flags ~rule:"determinism" ~subpath:"lib/util/x.ml" "let now () = Unix.gettimeofday ()\n";
  check_flags ~rule:"determinism" ~subpath:"lib/core/x.ml" "let r () = Random.int 2\n";
  check_flags ~rule:"determinism" ~subpath:"lib/core/x.ml"
    "let m x = Marshal.to_string x []\n"

let test_determinism_clean () =
  check_clean ~rule:"determinism" ~subpath:"lib/core/x.ml"
    "let f h = Det.iter_sorted ~compare:Int.compare (fun _ _ -> ()) h\n\
     let r st = Random.State.int st 2\n\
     let m tbl = Hashtbl.replace tbl 0 1\n";
  (* relaxed directories are out of scope for the determinism rule *)
  check_clean ~rule:"determinism" ~subpath:"tools/x.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h\n"

(* ------------------------------------------------------------------ *)
(* poly-compare                                                         *)
(* ------------------------------------------------------------------ *)

let test_poly_compare_flags () =
  check_flags ~rule:"poly-compare" ~subpath:"lib/core/x.ml" "let f a b = compare a b\n";
  check_flags ~rule:"poly-compare" ~subpath:"lib/core/x.ml"
    "let f l = List.sort compare l\n";
  check_flags ~rule:"poly-compare" ~subpath:"lib/core/x.ml" "let g x = x = Some 1\n";
  check_flags ~rule:"poly-compare" ~subpath:"lib/core/x.ml" "let g x = x <> (1, 2)\n";
  check_flags ~rule:"poly-compare" ~subpath:"lib/core/x.ml"
    "type v = A | B\nlet g x = x = A\n"

let test_poly_compare_clean () =
  check_clean ~rule:"poly-compare" ~subpath:"lib/core/x.ml"
    "let f a b = Int.compare a b\n\
     let g x = x = None\n\
     let h x = x = []\n\
     let i x = x = 3\n\
     let j a b = a = b\n\
     let k l = List.sort String.compare l\n"

(* ------------------------------------------------------------------ *)
(* quorum                                                               *)
(* ------------------------------------------------------------------ *)

let test_quorum_flags () =
  check_flags ~rule:"quorum" ~subpath:"lib/core/x.ml" "let q tt = tt + 1\n";
  check_flags ~rule:"quorum" ~subpath:"lib/core/x.ml" "let q tt = (2 * tt) + 1\n";
  check_flags ~rule:"quorum" ~subpath:"lib/core/x.ml"
    "type cfg = { n : int; t : int }\nlet q cfg = cfg.n - cfg.t\n"

let test_quorum_clean () =
  check_clean ~rule:"quorum" ~subpath:"lib/core/x.ml"
    "let q tt = Quorum.plurality ~t:tt\n\
     let deg tf = 2 * tf\n\
     let w n = n - 1\n\
     let s xs = List.length xs + 1\n";
  (* the one exempt file: the vocabulary's own definitions *)
  check_clean ~rule:"quorum" ~subpath:"lib/util/quorum.ml"
    "let plurality ~t = t + 1\nlet supermajority ~t = (2 * t) + 1\n"

(* ------------------------------------------------------------------ *)
(* total-decoding                                                       *)
(* ------------------------------------------------------------------ *)

let test_total_decoding_flags () =
  check_flags ~rule:"total-decoding" ~subpath:"lib/wire/get.ml"
    "let f () = failwith \"nope\"\n";
  check_flags ~rule:"total-decoding" ~subpath:"lib/wire/get.ml" "let f l = List.hd l\n";
  check_flags ~rule:"total-decoding" ~subpath:"lib/wire/get.ml" "let f o = Option.get o\n";
  check_flags ~rule:"total-decoding" ~subpath:"lib/wire/get.ml"
    "let f = function 0 -> 1 | _ -> assert false\n"

let test_total_decoding_clean () =
  check_clean ~rule:"total-decoding" ~subpath:"lib/wire/get.ml"
    "exception Malformed of string\n\
     let f = function [] -> Error (Malformed \"empty\") | x :: _ -> Ok x\n";
  (* the rule only applies to wire decode paths *)
  check_clean ~rule:"total-decoding" ~subpath:"lib/core/x.ml"
    "let f () = failwith \"not a decode path\"\n"

(* ------------------------------------------------------------------ *)
(* wire-coverage                                                        *)
(* ------------------------------------------------------------------ *)

let wire_fixture ~wirefmt =
  [ ("lib/wire/proto.ml", "type msg = A of int | B\n");
    ("lib/wire/stack.ml",
     "module Make (M : sig end) = struct\n  type msg = Wrap of int\nend\n");
    ("lib/wire/wirefmt.ml", wirefmt) ]

let covered_wirefmt =
  "module S = Stack.Make (Proto)\n\
   let encode = function S.Wrap i -> i\n\
   let decode i = S.Wrap i\n\
   let encode_p = function Proto.A i -> i | Proto.B -> 0\n\
   let decode_p = function 0 -> Proto.B | i -> Proto.A i\n"

let test_wire_coverage_flags () =
  (* decoder never rebuilds Proto.B *)
  let report =
    lint_fixture
      (wire_fixture
         ~wirefmt:
           "module S = Stack.Make (Proto)\n\
            let encode = function S.Wrap i -> i\n\
            let decode i = S.Wrap i\n\
            let encode_p = function Proto.A i -> i | Proto.B -> 0\n\
            let decode_p i = Proto.A i\n")
  in
  Alcotest.(check bool) "missing decode branch flagged" true (count_rule "wire-coverage" report > 0);
  (* encoder never matches S.Wrap *)
  let report =
    lint_fixture
      (wire_fixture
         ~wirefmt:
           "module S = Stack.Make (Proto)\n\
            let decode i = S.Wrap i\n\
            let encode_p = function Proto.A i -> i | Proto.B -> 0\n\
            let decode_p = function 0 -> Proto.B | i -> Proto.A i\n")
  in
  Alcotest.(check bool) "missing encode branch flagged" true (count_rule "wire-coverage" report > 0);
  (* a wirefmt.ml with no codec bindings at all is itself a finding *)
  let report = lint_fixture [ ("lib/wire/wirefmt.ml", "let x = 1\n") ] in
  Alcotest.(check bool) "no bindings flagged" true (count_rule "wire-coverage" report > 0)

let test_wire_coverage_clean () =
  let report = lint_fixture (wire_fixture ~wirefmt:covered_wirefmt) in
  Alcotest.(check int) "covered wirefmt is clean" 0 (count_rule "wire-coverage" report)

(* The nested shape [module S = Stack.Make (Stack.Rule (Proto))], with the
   stack's own constructors encoded once by a functor over [Stack.S]. *)
let nested_fixture ~wirefmt =
  [ ("lib/wire/proto.ml", "type msg = A of int | B\n");
    ("lib/wire/stack.ml",
     "module type S = sig\n  type msg = Wrap of int | Done\nend\n\
      module Rule (P : sig end) = struct end\n\
      module Make (R : sig end) = struct\n  type msg = Wrap of int | Done\nend\n");
    ("lib/wire/wirefmt.ml", wirefmt) ]

let nested_wirefmt ~framed ~decode_p =
  "module S = Stack.Make (Stack.Rule (Proto))\n" ^ framed
  ^ "let encode_p = function Proto.A i -> i | Proto.B -> 0\n" ^ decode_p

let framed =
  "module Framed (A : Stack.S) = struct\n\
  \  let encode = function A.Wrap i -> i | A.Done -> 0\n\
  \  let decode i = if i = 0 then A.Done else A.Wrap i\n\
   end\n"

let decode_p = "let decode_p = function 0 -> Proto.B | i -> Proto.A i\n"

let test_wire_coverage_nested () =
  let count wirefmt = count_rule "wire-coverage" (lint_fixture (nested_fixture ~wirefmt)) in
  Alcotest.(check int) "nested binding, fully covered" 0 (count (nested_wirefmt ~framed ~decode_p));
  Alcotest.(check int) "inner decode branch missing" 1
    (count (nested_wirefmt ~framed ~decode_p:"let decode_p i = Proto.A i\n"));
  Alcotest.(check int) "stack decode branch missing from the generic framing" 1
    (count
       (nested_wirefmt ~decode_p
          ~framed:
            "module Framed (A : Stack.S) = struct\n\
            \  let encode = function A.Wrap i -> i | A.Done -> 0\n\
            \  let decode i = A.Wrap i\n\
             end\n"));
  Alcotest.(check int) "no framing: both stack constructors, both directions" 4
    (count (nested_wirefmt ~framed:"" ~decode_p))

(* The plain-variant shape: a codec value annotated [Rsm.msg Wire.codec],
   whose [Epoch] carries the sibling [Acs.msg]; [Bracha] and [Aba_slot]
   have no file alongside and are not followed. *)
let plain_fixture ~enc ~dec =
  [ ("lib/rsm/acs.ml", "type msg = Rbc of int * string Bracha.msg | Aba of int * Aba_slot.msg\n");
    ("lib/rsm/rsm.ml", "type msg = Epoch of int * Acs.msg\n");
    ("lib/rsm/wirefmt.ml",
     "let rsm : Rsm.msg Wire.codec =\n  { enc = (" ^ enc ^ ");\n    dec = (" ^ dec ^ ") }\n") ]

let plain_enc =
  "function Rsm.Epoch (e, Acs.Rbc (j, m)) -> (e, j, m) | Rsm.Epoch (e, Acs.Aba (j, m)) -> (e, j, m)"

let plain_dec =
  "fun (e, j, m) -> if j = 0 then Rsm.Epoch (e, Acs.Rbc (j, m)) else Rsm.Epoch (e, Acs.Aba (j, m))"

let wire_messages files =
  List.filter_map
    (fun (f : Lint.finding) -> if String.equal f.rule "wire-coverage" then Some f.message else None)
    (lint_fixture files).findings

let test_wire_coverage_plain () =
  Alcotest.(check (list string)) "annotated codec, fully covered" []
    (wire_messages (plain_fixture ~enc:plain_enc ~dec:plain_dec));
  Alcotest.(check (list string)) "carried Acs.Aba decode branch missing"
    [ "constructor Acs.Aba has no decode branch (never constructed)" ]
    (wire_messages (plain_fixture ~enc:plain_enc ~dec:"fun (e, j, m) -> Rsm.Epoch (e, Acs.Rbc (j, m))"));
  Alcotest.(check (list string)) "root Rsm.Epoch encode branch missing"
    [ "constructor Rsm.Epoch has no encode branch (never matched as a pattern)" ]
    (wire_messages
       (plain_fixture ~enc:"function Acs.Rbc (j, m) -> (j, m) | Acs.Aba (j, m) -> (j, m)" ~dec:plain_dec))

(* A carried [X.msg] whose module wirefmt.ml aliases from another
   library ([module Bracha = Bca_baselines.Bracha]) is followed into that
   library's directory: its constructors need both branches too. *)
let alias_fixture ~dec =
  [ ("lib/baselines/bracha.ml", "type msg = Initial of string | Fetch of string\n");
    ("lib/rsm/acs.ml", "type msg = Rbc of int * Bracha.msg\n");
    ("lib/rsm/wirefmt.ml",
     "module Bracha = Bca_baselines.Bracha\n\
      let rsm : Acs.msg Wire.codec =\n\
     \  { enc = (function Acs.Rbc (j, Bracha.Initial p) -> (j, p)\n\
     \           | Acs.Rbc (j, Bracha.Fetch h) -> (j, h));\n\
     \    dec = (" ^ dec ^ ") }\n") ]

let test_wire_coverage_alias () =
  Alcotest.(check (list string)) "aliased library variant, fully covered" []
    (wire_messages
       (alias_fixture
          ~dec:
            "fun (j, p) -> if j = 0 then Acs.Rbc (j, Bracha.Initial p) else Acs.Rbc (j, \
             Bracha.Fetch p)"));
  Alcotest.(check (list string)) "aliased library constructor decode branch missing"
    [ "constructor Bracha.Fetch has no decode branch (never constructed)" ]
    (wire_messages (alias_fixture ~dec:"fun (j, p) -> Acs.Rbc (j, Bracha.Initial p)"))

(* ------------------------------------------------------------------ *)
(* Suppressions                                                         *)
(* ------------------------------------------------------------------ *)

let test_suppression_valid () =
  let report =
    lint_fixture
      [ ("lib/core/x.ml",
         "(* lint: allow determinism -- fixture exercising the suppression grammar *)\n\
          let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check int) "no findings" 0 (List.length report.findings);
  Alcotest.(check int) "one silenced" 1 report.suppressed;
  Alcotest.(check int) "one comment" 1 report.suppression_comments

let test_suppression_file_level () =
  let report =
    lint_fixture
      [ ("lib/core/x.ml",
         "(* lint: allow-file determinism -- whole-file fixture *)\n\
          let pad = ()\nlet pad2 = ()\n\
          let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check int) "no findings" 0 (List.length report.findings);
  Alcotest.(check int) "one silenced" 1 report.suppressed

let test_suppression_needs_reason () =
  let report =
    lint_fixture
      [ ("lib/core/x.ml",
         "(* lint: allow determinism *)\nlet f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check bool) "reasonless suppression is a finding" true
    (count_rule "suppression" report > 0);
  Alcotest.(check bool) "and does not silence" true (count_rule "determinism" report > 0)

let test_suppression_unknown_rule () =
  let report =
    lint_fixture
      [ ("lib/core/x.ml", "(* lint: allow nosuchrule -- reason here *)\nlet x = 1\n") ]
  in
  Alcotest.(check bool) "unknown rule is a finding" true (count_rule "suppression" report > 0)

let test_suppression_wrong_line () =
  (* a line suppression covers its own line and the next one, not the
     whole file *)
  let report =
    lint_fixture
      [ ("lib/core/x.ml",
         "(* lint: allow determinism -- too far away *)\n\
          let pad = ()\n\
          let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check bool) "out-of-range suppression does not silence" true
    (count_rule "determinism" report > 0)

(* ------------------------------------------------------------------ *)
(* Engine: rule selection and reporters                                 *)
(* ------------------------------------------------------------------ *)

let test_only_filter () =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      write_file ~root "lib/core/x.ml" "let f h = Hashtbl.iter (fun _ _ -> ()) h\n";
      let report = Lint.run ~rules:Rules.all ~only:[ "quorum" ] ~paths:[ root ] () in
      Alcotest.(check int) "determinism not run" 0 (List.length report.findings);
      Alcotest.(check bool) "unknown rule name rejected" true
        (match Lint.run ~rules:Rules.all ~only:[ "bogus" ] ~paths:[ root ] () with
        | _ -> false
        | exception Invalid_argument _ -> true))

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) affix || go (i + 1)) in
  go 0

let test_reporters () =
  let report =
    lint_fixture [ ("lib/core/x.ml", "let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  let text = Format.asprintf "%a" Lint.pp_text report in
  Alcotest.(check bool) "text names the rule" true
    (contains text "[determinism]");
  let json = Lint.to_json report in
  Alcotest.(check bool) "json has findings" true
    (contains json "\"rule\": \"determinism\"");
  Alcotest.(check bool) "json counts files" true
    (contains json "\"files_scanned\": 1")

let test_parse_error () =
  let report = lint_fixture [ ("lib/core/x.ml", "let f = (\n") ] in
  Alcotest.(check bool) "syntax error surfaces" true (count_rule "parse-error" report > 0)

(* ------------------------------------------------------------------ *)
(* Flow: interprocedural wire-taint analysis                            *)
(* ------------------------------------------------------------------ *)

let lint_fixture_flow files =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter (fun (subpath, content) -> write_file ~root subpath content) files;
      Lint.run ~rules:Rules.all ~flow:Flow.pass ~paths:[ root ] ())

(* Parse a fixture tree and build the flow program directly, for
   call-graph and summary introspection. *)
let build_fixture files =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter (fun (subpath, content) -> write_file ~root subpath content) files;
      let sources =
        List.filter_map
          (fun (subpath, _) ->
            let path = Filename.concat root subpath in
            match Lint.parse_file path with
            | Ok ast -> Some { Lint.path; profile = Lint.profile_of_path path; ast }
            | Error _ -> None)
          files
      in
      Flow.build sources)

let check_flow_flags ~rule ~subpath content =
  let report = lint_fixture_flow [ (subpath, content) ] in
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s" rule subpath)
    true
    (count_rule rule report > 0)

let check_flow_clean ~rule ~subpath content =
  let report = lint_fixture_flow [ (subpath, content) ] in
  Alcotest.(check int)
    (Printf.sprintf "%s passes %s" rule subpath)
    0 (count_rule rule report)

(* The PR-4 regression, reintroduced as a fixture: a varint decoder
   whose unchecked shift can overflow to a negative int, feeding an
   allocation that only guards the upper side.  The analysis earns
   [varint]'s lower bound from its body, so only the overflow-checked
   twin is clean. *)
let buggy_varint =
  "let varint t =\n\
  \  let rec go shift acc =\n\
  \    let b = Get.u8 t in\n\
  \    let acc = acc lor ((b land 0x7f) lsl shift) in\n\
  \    if b < 0x80 then acc else go (shift + 7) acc\n\
  \  in\n\
  \  go 0 0\n"

let fixed_varint =
  "let varint t =\n\
  \  let rec go shift acc =\n\
  \    let b = Get.u8 t in\n\
  \    let acc = acc lor ((b land 0x7f) lsl shift) in\n\
  \    if acc < 0 then failwith \"varint overflow\";\n\
  \    if b < 0x80 then acc else go (shift + 7) acc\n\
  \  in\n\
  \  go 0 0\n"

let varint_caller =
  "let read_block t =\n\
  \  let len = varint t in\n\
  \  if len > 65536 then failwith \"oversized block\";\n\
  \  Bytes.create len\n"

let test_flow_varint_overflow () =
  let report =
    lint_fixture_flow [ ("lib/core/flowbad.ml", buggy_varint ^ varint_caller) ]
  in
  Alcotest.(check bool) "overflowable varint length flagged" true
    (count_rule "unbounded-alloc" report > 0);
  (* the finding carries the full source -> call chain -> sink trace *)
  let f =
    List.find
      (fun (f : Lint.finding) -> String.equal f.rule "unbounded-alloc")
      report.findings
  in
  let note affix = List.exists (fun n -> contains n affix) f.notes in
  Alcotest.(check bool) "trace starts at the decode source" true (note "source Get.u8");
  Alcotest.(check bool) "trace passes through varint" true (note "Flowbad.varint");
  Alcotest.(check bool) "trace ends at the allocation" true (note "sink Bytes.create")

let test_flow_varint_fixed () =
  check_flow_clean ~rule:"unbounded-alloc" ~subpath:"lib/core/flowgood.ml"
    (fixed_varint ^ varint_caller)

let test_flow_index_flags () =
  check_flow_flags ~rule:"wire-taint" ~subpath:"lib/core/x.ml"
    "let pick arr t =\n  let i = Get.i64 t in\n  arr.(i)\n";
  (* Key sink: unbounded ints as table keys grow the table forever *)
  check_flow_flags ~rule:"wire-taint" ~subpath:"lib/core/x.ml"
    "let track tbl t = Hashtbl.replace tbl (Get.i64 t) true\n";
  (* Loop sink: decoded bound without an upper check *)
  check_flow_flags ~rule:"unbounded-alloc" ~subpath:"lib/core/x.ml"
    "let spin t =\n  let n = Get.i64 t in\n  for i = 0 to n do ignore i done\n"

let test_flow_index_clean () =
  (* a plain comparison is evidence enough (u32 is non-negative by
     construction, the if supplies the upper bound) *)
  check_flow_clean ~rule:"wire-taint" ~subpath:"lib/core/x.ml"
    "let pick arr t =\n\
    \  let i = Get.u32 t in\n\
    \  if i < Array.length arr then arr.(i) else 0\n";
  (* the Bounds sanitizer catalog covers both sides at once *)
  check_flow_clean ~rule:"wire-taint" ~subpath:"lib/core/x.ml"
    "let pick arr t =\n\
    \  let i = Get.i64 t in\n\
    \  if Bounds.index_ok ~len:(Array.length arr) i then arr.(i) else 0\n";
  (* decoded *strings* are legitimate table keys *)
  check_flow_clean ~rule:"wire-taint" ~subpath:"lib/core/x.ml"
    "let track tbl t = Hashtbl.replace tbl (Get.string t) true\n";
  check_flow_clean ~rule:"unbounded-alloc" ~subpath:"lib/core/x.ml"
    "let spin t =\n\
    \  let n = Get.i64 t in\n\
    \  if n > 1024 then failwith \"too many\";\n\
    \  if n < 0 then failwith \"negative\";\n\
    \  for i = 0 to n do ignore i done\n"

(* Fixed-width and unchecked byte accessors are index sinks like
   [String.get]; [Buffer.add_subbytes] is an offset and a length sink
   like [Buffer.add_substring].  One bad/good line per catalog entry. *)
let byte_sink_uses =
  [ ("wire-taint", "String.get_int32_le s i");
    ("wire-taint", "String.get_int32_be s i");
    ("wire-taint", "String.get_uint16_be s i");
    ("wire-taint", "Bytes.get_int32_le b i");
    ("wire-taint", "Bytes.set_int32_be b i 0l");
    ("wire-taint", "Bytes.set_uint16_be b i 0");
    ("wire-taint", "String.unsafe_get s i");
    ("wire-taint", "Bytes.unsafe_get b i");
    ("wire-taint", "Buffer.add_subbytes buf b i 4");
    ("unbounded-alloc", "Buffer.add_subbytes buf b 0 i") ]

let byte_sink_fixture ~guarded use =
  Printf.sprintf
    "let touch buf s b t =\n\
    \  let i = Get.i64 t in\n\
    \  %signore (%s)\n"
    (if guarded then "if Bounds.slice_ok ~pos:i ~len:4 (Bytes.length b) then " else "")
    use

let test_flow_byte_sinks_flag () =
  List.iter
    (fun (rule, use) ->
      check_flow_flags ~rule ~subpath:"lib/core/x.ml" (byte_sink_fixture ~guarded:false use))
    byte_sink_uses

let test_flow_byte_sinks_clean () =
  List.iter
    (fun (rule, use) ->
      check_flow_clean ~rule ~subpath:"lib/core/x.ml" (byte_sink_fixture ~guarded:true use))
    byte_sink_uses

(* The CRC kernel's shape: an unguarded worker reading eight bytes per
   step, reached from a decoded offset.  The finding traces through the
   entry point into the worker; the entry point's [Bounds.slice_ok]
   guard is what keeps the real [Wire.crc32] clean. *)
let kernel_fixture ~guarded =
  Printf.sprintf
    "let update b ~pos ~len =\n\
    \  let c = ref 0 and i = ref pos in\n\
    \  while !i < pos + len do\n\
    \    c := !c lxor Int32.to_int (Bytes.get_int32_le b !i);\n\
    \    i := !i + 8\n\
    \  done;\n\
    \  !c\n\
     let crc s ~pos ~len =\n\
    \  %supdate (Bytes.unsafe_of_string s) ~pos ~len\n\
     let check t s = crc s ~pos:(Get.i64 t) ~len:8\n"
    (if guarded then "if not (Bounds.slice_ok ~pos ~len (String.length s)) then invalid_arg \"crc\";\n  "
     else "")

let test_flow_kernel_shape () =
  let report = lint_fixture_flow [ ("lib/core/kernel.ml", kernel_fixture ~guarded:false) ] in
  (match List.find_opt (fun (f : Lint.finding) -> String.equal f.rule "wire-taint") report.findings with
  | None -> Alcotest.fail "unguarded kernel offset not flagged"
  | Some f ->
    let note affix = List.exists (fun n -> contains n affix) f.notes in
    Alcotest.(check bool) "trace passes through the entry point" true (note "Kernel.crc");
    Alcotest.(check bool) "trace ends at the word read" true (note "sink Bytes.get_int32_le"));
  check_flow_clean ~rule:"wire-taint" ~subpath:"lib/core/kernel.ml" (kernel_fixture ~guarded:true)

let dec_use_fixture =
  [ ("lib/core/dec.ml", "let parse t = Get.i64 t\n");
    ("lib/core/use.ml", "let go arr t = Array.get arr (Dec.parse t)\n") ]

let test_flow_cross_file () =
  let report = lint_fixture_flow dec_use_fixture in
  Alcotest.(check bool) "cross-file sink flagged" true (count_rule "wire-taint" report > 0);
  let f =
    List.find (fun (f : Lint.finding) -> String.equal f.rule "wire-taint") report.findings
  in
  Alcotest.(check bool) "finding lands in the sink file" true (contains f.file "use.ml");
  Alcotest.(check bool) "trace crosses the file boundary" true
    (List.exists (fun n -> contains n "Dec.parse") f.notes)

let test_flow_call_graph () =
  let prog = build_fixture dec_use_fixture in
  let fns = Flow.functions prog in
  Alcotest.(check bool) "harvests Dec.parse" true (List.mem "Dec.parse" fns);
  Alcotest.(check bool) "harvests Use.go" true (List.mem "Use.go" fns);
  Alcotest.(check bool) "Use.go calls Dec.parse" true
    (List.mem "Dec.parse" (Flow.callees prog "Use.go"));
  Alcotest.(check bool) "Dec.parse returns taint" true (Flow.returns_taint prog "Dec.parse");
  Alcotest.(check bool) "summary names the source" true
    (contains (Flow.summary_string prog "Dec.parse") "Get.i64")

let test_flow_reporters () =
  let report = lint_fixture_flow dec_use_fixture in
  let text = Format.asprintf "%a" Lint.pp_text report in
  Alcotest.(check bool) "text report prints the trace" true (contains text "source Get.i64");
  let json = Lint.to_json report in
  Alcotest.(check bool) "json report carries the trace" true (contains json "\"trace\"")

let test_flow_suppressible () =
  let report =
    lint_fixture_flow
      [ ("lib/core/x.ml",
         "let pick arr t =\n\
         \  let i = Get.i64 t in\n\
         \  (* lint: allow wire-taint -- fixture: deliberate unchecked index *)\n\
         \  arr.(i)\n") ]
  in
  Alcotest.(check int) "flow finding silenced" 0 (count_rule "wire-taint" report);
  Alcotest.(check bool) "counted as suppressed" true (report.suppressed > 0);
  Alcotest.(check int) "suppression is live, not stale" 0
    (count_rule "stale-suppression" report)

(* A chain f0 <- f1 <- ... where each link either forwards the decoded
   value or breaks the chain with a constant. *)
let chain_file links =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "let f0 t = Get.i64 t\n";
  List.iteri
    (fun i keep ->
      let j = i + 1 in
      if keep then Buffer.add_string buf (Printf.sprintf "let f%d t = f%d t\n" j i)
      else Buffer.add_string buf (Printf.sprintf "let f%d _t = 0\n" j))
    links;
  Buffer.contents buf

let chain_tainted links =
  let prog = build_fixture [ ("lib/core/chain.ml", chain_file links) ] in
  Flow.tainted_returns prog

let flow_qcheck =
  let links = QCheck.(list_of_size Gen.(int_bound 5) bool) in
  [ QCheck.Test.make ~count:60 ~name:"taint follows exactly the unbroken prefix" links
      (fun ls ->
        let tainted = chain_tainted ls in
        let rec prefix i = function
          | [] -> []
          | true :: tl -> Printf.sprintf "Chain.f%d" (i + 1) :: prefix (i + 1) tl
          | false :: _ -> []
        in
        let expected = "Chain.f0" :: prefix 0 ls in
        List.sort String.compare expected = List.sort String.compare tainted);
    QCheck.Test.make ~count:60 ~name:"adding a call edge never shrinks tainted returns" links
      (fun ls ->
        let before = chain_tainted ls in
        let extended =
          chain_file ls
          ^ Printf.sprintf "let tail t = f%d t\n" (List.length ls)
        in
        let after =
          Flow.tainted_returns
            (build_fixture [ ("lib/core/chain.ml", extended) ])
        in
        List.for_all (fun n -> List.mem n after) before) ]

(* ------------------------------------------------------------------ *)
(* stale-suppression                                                    *)
(* ------------------------------------------------------------------ *)

let test_stale_suppression_flags () =
  (* silences nothing while its rule ran: stale *)
  let report =
    lint_fixture
      [ ("lib/core/x.ml", "(* lint: allow determinism -- no longer needed *)\nlet x = 1\n") ]
  in
  Alcotest.(check bool) "dead allow comment flagged" true
    (count_rule "stale-suppression" report > 0);
  Alcotest.(check bool) "stale is an error" true (Lint.has_errors report)

let test_stale_suppression_scoped_to_run () =
  (* names a flow rule: only stale when the flow pass actually ran *)
  let file =
    ("lib/core/x.ml", "(* lint: allow wire-taint -- flow-only fixture *)\nlet x = 1\n")
  in
  let without_flow = lint_fixture [ file ] in
  Alcotest.(check int) "not stale when the rule did not run" 0
    (count_rule "stale-suppression" without_flow);
  let with_flow = lint_fixture_flow [ file ] in
  Alcotest.(check bool) "stale once the flow pass runs" true
    (count_rule "stale-suppression" with_flow > 0)

(* ------------------------------------------------------------------ *)
(* Self-clean gate: the repository's own lib/ tree must lint clean      *)
(* ------------------------------------------------------------------ *)

let test_self_clean () =
  (* cwd is _build/default/test under `dune runtest` (the source_tree dep
     stages lib/ next to it) and the repo root under `dune exec` *)
  let lib =
    List.find_opt
      (fun p -> Sys.file_exists (Filename.concat p "util"))
      [ "../lib"; "lib" ]
    |> function
    | Some p -> p
    | None -> Alcotest.fail "lib/ not found from the test's working directory"
  in
  let report = Lint.run ~rules:Rules.all ~paths:[ lib ] () in
  Alcotest.(check string) "lib/ lints clean" ""
    (Format.asprintf "%a"
       (fun ppf -> List.iter (Format.fprintf ppf "%a@." Lint.pp_finding))
       report.findings);
  Alcotest.(check bool) "a useful number of files scanned" true (report.files_scanned > 40)

let test_self_clean_flow () =
  let lib =
    List.find_opt
      (fun p -> Sys.file_exists (Filename.concat p "util"))
      [ "../lib"; "lib" ]
    |> function
    | Some p -> p
    | None -> Alcotest.fail "lib/ not found from the test's working directory"
  in
  let t0 = Unix.gettimeofday () in
  let report = Lint.run ~rules:Rules.all ~flow:Flow.pass ~paths:[ lib ] () in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "lib/ is flow-clean" ""
    (Format.asprintf "%a"
       (fun ppf -> List.iter (Format.fprintf ppf "%a@." Lint.pp_finding))
       report.findings);
  Alcotest.(check bool) "flow rules ran" true (List.mem "wire-taint" report.rules_run);
  Alcotest.(check bool) "whole-lib analysis stays under the 10s budget" true (dt < 10.0)

let () =
  Alcotest.run "lint"
    [ ("profiles", [ Alcotest.test_case "directory profiles" `Quick test_profiles ]);
      ( "determinism",
        [ Alcotest.test_case "flags bad" `Quick test_determinism_flags;
          Alcotest.test_case "passes good" `Quick test_determinism_clean ] );
      ( "poly-compare",
        [ Alcotest.test_case "flags bad" `Quick test_poly_compare_flags;
          Alcotest.test_case "passes good" `Quick test_poly_compare_clean ] );
      ( "quorum",
        [ Alcotest.test_case "flags bad" `Quick test_quorum_flags;
          Alcotest.test_case "passes good" `Quick test_quorum_clean ] );
      ( "total-decoding",
        [ Alcotest.test_case "flags bad" `Quick test_total_decoding_flags;
          Alcotest.test_case "passes good" `Quick test_total_decoding_clean ] );
      ( "wire-coverage",
        [ Alcotest.test_case "flags bad" `Quick test_wire_coverage_flags;
          Alcotest.test_case "passes good" `Quick test_wire_coverage_clean;
          Alcotest.test_case "nested functor bindings" `Quick test_wire_coverage_nested;
          Alcotest.test_case "annotated plain-variant codec" `Quick test_wire_coverage_plain;
          Alcotest.test_case "library alias followed" `Quick test_wire_coverage_alias ] );
      ( "suppressions",
        [ Alcotest.test_case "valid line" `Quick test_suppression_valid;
          Alcotest.test_case "valid file" `Quick test_suppression_file_level;
          Alcotest.test_case "needs reason" `Quick test_suppression_needs_reason;
          Alcotest.test_case "unknown rule" `Quick test_suppression_unknown_rule;
          Alcotest.test_case "out of range" `Quick test_suppression_wrong_line ] );
      ( "engine",
        [ Alcotest.test_case "--rules filter" `Quick test_only_filter;
          Alcotest.test_case "reporters" `Quick test_reporters;
          Alcotest.test_case "parse error" `Quick test_parse_error ] );
      ( "flow",
        [ Alcotest.test_case "varint overflow fixture" `Quick test_flow_varint_overflow;
          Alcotest.test_case "fixed varint is clean" `Quick test_flow_varint_fixed;
          Alcotest.test_case "flags index/key/loop sinks" `Quick test_flow_index_flags;
          Alcotest.test_case "passes guarded sinks" `Quick test_flow_index_clean;
          Alcotest.test_case "flags byte accessor sinks" `Quick test_flow_byte_sinks_flag;
          Alcotest.test_case "passes guarded byte accessors" `Quick test_flow_byte_sinks_clean;
          Alcotest.test_case "crc kernel shape" `Quick test_flow_kernel_shape;
          Alcotest.test_case "cross-file propagation" `Quick test_flow_cross_file;
          Alcotest.test_case "call graph" `Quick test_flow_call_graph;
          Alcotest.test_case "trace reporters" `Quick test_flow_reporters;
          Alcotest.test_case "suppressible" `Quick test_flow_suppressible ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) flow_qcheck );
      ( "stale-suppression",
        [ Alcotest.test_case "dead allow comment" `Quick test_stale_suppression_flags;
          Alcotest.test_case "scoped to rules run" `Quick test_stale_suppression_scoped_to_run ] );
      ("self",
        [ Alcotest.test_case "lib/ lints clean" `Quick test_self_clean;
          Alcotest.test_case "lib/ is flow-clean" `Quick test_self_clean_flow ]) ]
