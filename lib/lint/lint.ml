type severity = Error | Warning

type profile = Strict | Standard | Relaxed

type finding = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  notes : string list;
}

type source = { path : string; profile : profile; ast : Parsetree.structure }

type rule = {
  name : string;
  doc : string;
  severity : severity;
  applies : path:string -> profile -> bool;
  check : source -> finding list;
}

type report = {
  findings : finding list;
  suppressed : int;
  suppression_comments : int;
  files_scanned : int;
  rules_run : string list;
}

(* ------------------------------------------------------------------ *)
(* Paths and profiles                                                   *)
(* ------------------------------------------------------------------ *)

let segments path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun s -> not (String.equal s "") && not (String.equal s "."))

(* [lib] directly followed by one of the replay-critical directory names;
   matching on segment pairs keeps this correct for absolute paths,
   relative paths and the _build copies the tests scan. *)
let rec has_pair a b = function
  | x :: (y :: _ as rest) ->
    (String.equal x a && String.equal y b) || has_pair a b rest
  | _ -> false

let strict_dirs = [ "core"; "wire"; "netsim"; "transport" ]

let profile_of_path path =
  let segs = segments path in
  if List.exists (fun d -> has_pair "lib" d segs) strict_dirs then Strict
  else if List.exists (String.equal "lib") segs then Standard
  else Relaxed

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let parse_file path =
  if not (Sys.file_exists path) then Stdlib.Error "no such file"
  else
    match Pparse.parse_implementation ~tool_name:"bca-lint" path with
    | ast -> Stdlib.Ok ast
    | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
        | _ -> Printexc.to_string exn
      in
      Stdlib.Error (String.map (function '\n' -> ' ' | c -> c) msg)

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                 *)
(* ------------------------------------------------------------------ *)

type suppression = {
  sup_kind : [ `Line of int | `File ];
  sup_rules : string list;
  sup_line : int;
  sup_col : int;
  mutable sup_used : bool;
}

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go 0

(* Grammar - the marker is the exact comment opener, which keeps code or
   strings that merely mention the word from being parsed:
     open-comment lint: allow <rule>[,<rule>...] <reason>
     open-comment lint: allow-file <rule>[,<rule>...] <reason>
   The rule list is a single whitespace-delimited field (commas, no
   spaces); the rest of the line up to the comment closer is the
   mandatory reason. *)
(* built by concatenation so the scanner never matches its own definition *)
let marker = "(* " ^ "lint:"

let parse_suppression_line ~known ~path ~line text =
  match find_substring text marker with
  | None -> None
  | Some i ->
    let skip = i + String.length marker in
    let rest = String.sub text skip (String.length text - skip) in
    let rest = String.trim rest in
    let bad message =
      Some
        (Stdlib.Error
           { rule = "suppression";
             severity = Error;
             file = path;
             line;
             col = i;
             message;
             notes = [] })
    in
    let kind, rest =
      if String.length rest >= 10 && String.equal (String.sub rest 0 10) "allow-file" then
        (Some `File, String.sub rest 10 (String.length rest - 10))
      else if String.length rest >= 5 && String.equal (String.sub rest 0 5) "allow" then
        (Some (`Line line), String.sub rest 5 (String.length rest - 5))
      else (None, rest)
    in
    (match kind with
    | None -> bad "suppression comment is not of the form 'allow[-file] <rules> <reason>'"
    | Some sup_kind ->
      let rest = String.trim rest in
      let field, reason =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some j -> (String.sub rest 0 j, String.sub rest j (String.length rest - j))
      in
      let rules = String.split_on_char ',' field |> List.filter (fun s -> s <> "") in
      let reason =
        (* strip the comment closer and decorative dashes around the reason *)
        let r =
          match find_substring reason "*)" with
          | Some j -> String.sub reason 0 j
          | None -> reason
        in
        String.trim r
      in
      let has_letter s =
        String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s
      in
      if rules = [] then bad "suppression names no rule"
      else (
        match List.find_opt (fun r -> not (List.mem r known)) rules with
        | Some unknown -> bad (Printf.sprintf "suppression names unknown rule %S" unknown)
        | None ->
          if not (has_letter reason) then
            bad
              (Printf.sprintf
                 "suppression of %s lacks a reason; write 'allow %s -- why'"
                 (String.concat "," rules) field)
          else
            Some
              (Stdlib.Ok
                 { sup_kind; sup_rules = rules; sup_line = line; sup_col = i; sup_used = false })))

let scan_suppressions ~known path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let sups = ref [] and bad = ref [] and line = ref 0 in
      (try
         while true do
           let text = input_line ic in
           incr line;
           match parse_suppression_line ~known ~path ~line:!line text with
           | None -> ()
           | Some (Stdlib.Ok s) -> sups := s :: !sups
           | Some (Stdlib.Error f) -> bad := f :: !bad
         done
       with End_of_file -> ());
      (List.rev !sups, List.rev !bad))

let suppresses sups (f : finding) =
  let hits =
    List.filter
      (fun s ->
        List.mem f.rule s.sup_rules
        &&
        match s.sup_kind with
        | `File -> true
        | `Line l -> l = f.line || l = f.line - 1)
      sups
  in
  List.iter (fun s -> s.sup_used <- true) hits;
  hits <> []

(* ------------------------------------------------------------------ *)
(* File collection                                                      *)
(* ------------------------------------------------------------------ *)

let rec collect_files path acc =
  if not (Sys.file_exists path) then
    Stdlib.Error (Printf.sprintf "%s: no such file or directory" path)
  else if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           match acc with
           | Stdlib.Error _ -> acc
           | Stdlib.Ok files ->
             if String.equal name "_build" || (String.length name > 0 && Char.equal name.[0] '.')
             then Stdlib.Ok files
             else (
               match collect_files (Filename.concat path name) (Stdlib.Ok []) with
               | Stdlib.Ok sub -> Stdlib.Ok (files @ sub)
               | Stdlib.Error e -> Stdlib.Error e))
         acc
  else if Filename.check_suffix path ".ml" then (
    match acc with Stdlib.Ok files -> Stdlib.Ok (files @ [ path ]) | e -> e)
  else acc

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let run ~rules ?flow ?only ~paths () =
  let flow_names = match flow with Some (names, _) -> names | None -> [] in
  (* vocabulary a suppression may name: every AST rule plus the flow
     rules (parseable even on runs without --flow, so annotated files
     stay lintable) and the engine-level rules *)
  let known =
    ("parse-error" :: "suppression" :: "stale-suppression" :: "wire-taint" :: "unbounded-alloc"
    :: List.map (fun r -> r.name) rules)
    |> List.sort_uniq String.compare
  in
  let rules =
    match only with
    | None -> rules
    | Some names ->
      List.iter
        (fun n ->
          if
            not
              (List.exists (fun r -> String.equal r.name n) rules
              || List.mem n flow_names
              || String.equal n "stale-suppression")
          then
            invalid_arg
              (Printf.sprintf "unknown rule %S (available: %s)" n
                 (String.concat ", "
                    (List.map (fun r -> r.name) rules @ flow_names @ [ "stale-suppression" ]))))
        names;
      List.filter (fun r -> List.mem r.name names) rules
  in
  let files =
    List.fold_left
      (fun acc p ->
        match acc with
        | Stdlib.Error _ -> acc
        | Stdlib.Ok fs -> collect_files p (Stdlib.Ok fs))
      (Stdlib.Ok []) paths
  in
  let files =
    match files with
    | Stdlib.Ok fs -> List.sort_uniq String.compare fs
    | Stdlib.Error e -> invalid_arg e
  in
  (* parse every file up front: the flow pass is whole-program *)
  let parsed =
    List.map
      (fun path ->
        let sups, bad_sups = scan_suppressions ~known path in
        (path, parse_file path, sups, bad_sups))
      files
  in
  let sources =
    List.filter_map
      (fun (path, p, _, _) ->
        match p with
        | Stdlib.Ok ast -> Some { path; profile = profile_of_path path; ast }
        | Stdlib.Error _ -> None)
      parsed
  in
  let flow_wanted n = match only with None -> true | Some o -> List.mem n o in
  let flow_findings, flow_run_names =
    match flow with
    | Some (names, pass) when List.exists flow_wanted names ->
      let fs = pass sources |> List.filter (fun f -> flow_wanted f.rule) in
      (fs, List.filter flow_wanted names)
    | _ -> ([], [])
  in
  (* rules whose silence is meaningful: a suppression naming only these
     and silencing nothing is itself dead weight *)
  let active = List.map (fun r -> r.name) rules @ flow_run_names in
  let all = ref [] in
  let suppressed = ref 0 in
  let suppression_comments = ref 0 in
  List.iter
    (fun (path, p, sups, bad_sups) ->
      suppression_comments := !suppression_comments + List.length sups;
      let raw =
        match p with
        | Stdlib.Error msg ->
          [ { rule = "parse-error";
              severity = Error;
              file = path;
              line = 1;
              col = 0;
              message = msg;
              notes = [] } ]
        | Stdlib.Ok ast ->
          let profile = profile_of_path path in
          let src = { path; profile; ast } in
          List.concat_map
            (fun r -> if r.applies ~path profile then r.check src else [])
            rules
      in
      let raw =
        raw @ List.filter (fun (f : finding) -> String.equal f.file path) flow_findings
      in
      let kept, silenced =
        List.partition
          (fun f ->
            String.equal f.rule "parse-error"
            || String.equal f.rule "suppression"
            || not (suppresses sups f))
          raw
      in
      suppressed := !suppressed + List.length silenced;
      let stale =
        match p with
        | Stdlib.Error _ -> []
        | Stdlib.Ok _ ->
          List.filter_map
            (fun s ->
              if (not s.sup_used) && List.for_all (fun r -> List.mem r active) s.sup_rules then
                Some
                  { rule = "stale-suppression";
                    severity = Error;
                    file = path;
                    line = s.sup_line;
                    col = s.sup_col;
                    message =
                      Printf.sprintf
                        "suppression of %s silences nothing on this %s; delete the allow comment"
                        (String.concat "," s.sup_rules)
                        (match s.sup_kind with `File -> "file" | `Line _ -> "line");
                    notes = [] }
              else None)
            sups
      in
      all := (bad_sups @ kept @ stale) @ !all)
    parsed;
  { findings = List.sort compare_findings !all;
    suppressed = !suppressed;
    suppression_comments = !suppression_comments;
    files_scanned = List.length files;
    rules_run = List.map (fun r -> r.name) rules @ flow_run_names @ [ "stale-suppression" ] }

let has_errors report =
  List.exists
    (fun (f : finding) -> match f.severity with Error -> true | Warning -> false)
    report.findings

(* ------------------------------------------------------------------ *)
(* Reporters                                                            *)
(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let pp_text ppf report =
  List.iter
    (fun f ->
      Format.fprintf ppf "%a@." pp_finding f;
      List.iter (fun n -> Format.fprintf ppf "    %s@." n) f.notes)
    report.findings;
  Format.fprintf ppf "bca lint: %s%d finding%s (%d suppressed) in %d files; rules: %s@."
    (if report.findings = [] then "clean - " else "")
    (List.length report.findings)
    (if List.length report.findings = 1 then "" else "s")
    report.suppressed report.files_scanned
    (String.concat ", " report.rules_run)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  Bca_util.Json.escape buf s;
  Buffer.contents buf

let to_json report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"files_scanned\": %d,\n  \"suppressed\": %d,\n  \"suppression_comments\": %d,\n"
       report.files_scanned report.suppressed report.suppression_comments);
  Buffer.add_string buf
    (Printf.sprintf "  \"rules\": [%s],\n"
       (String.concat ", " (List.map (fun r -> Printf.sprintf "\"%s\"" r) report.rules_run)));
  Buffer.add_string buf "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      let trace =
        match f.notes with
        | [] -> ""
        | notes ->
          Printf.sprintf ", \"trace\": [%s]"
            (String.concat ", "
               (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape n)) notes))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"severity\": \"%s\", \"message\": \"%s\"%s}"
           (json_escape f.file) f.line f.col (json_escape f.rule)
           (match f.severity with Error -> "error" | Warning -> "warning")
           (json_escape f.message) trace))
    report.findings;
  if report.findings <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf
