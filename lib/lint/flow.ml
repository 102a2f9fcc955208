(* Interprocedural wire-taint analysis.

   Per-file AST rules (rules.ml) cannot see where a value came from;
   this module can.  It harvests every function of the scanned tree
   from the parsetrees, computes per-function taint summaries to a
   fixpoint (which parameters and returns carry wire-derived data, and
   which parameters reach an allocation / index / key / loop-bound
   sink), then reports every sink reachable from a decode source
   without passing a recognized bounds check.

   The lattice per tracked value is a set of origins; each origin is
   either a source (a [Wire.Get.*]-style decode, attacker-controlled)
   or a parameter of the enclosing function (resolved at call sites),
   and carries two evidence bits: [lb] ("a lower bound is known",
   normally non-negativity) and [ub] ("an upper bound is known").
   Allocation and index sinks demand both bits - PR 4's varint
   overflow slipped through an upper-bound-only guard, which is
   exactly the state (lb = false, ub = true) - while loop bounds and
   table keys demand only [ub].  Comparisons in [if]/[when]/[assert]
   conditions upgrade the bits of the idents they mention (against a
   |c| <= 1 constant: lower bound; against anything else: upper bound;
   [=]: both), and arguments of [Bounds.*] / [Quorum.*] /
   [Hashtbl.mem] predicates are treated as fully checked. *)

open Parsetree

let lid_str lid = String.concat "." (Longident.flatten lid)

let strip_stdlib s =
  if String.length s > 7 && String.equal (String.sub s 0 7) "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

(* ------------------------------------------------------------------ *)
(* Taint values                                                         *)
(* ------------------------------------------------------------------ *)

type step = { st_what : string; st_file : string; st_line : int }

type origin = {
  o_param : int option;  (* Some i: taint of the enclosing function's parameter i *)
  o_src : string;  (* dotted source name; "" for bare parameter origins *)
  o_lb : bool;
  o_ub : bool;
  o_trace : step list;  (* source-to-here, in flow order *)
}

type sink_kind = Alloc | Index | Key | Loop

type psink = {
  k_param : int;
  k_kind : sink_kind;
  k_need_lb : bool;
  k_need_ub : bool;
  k_what : string;
  k_file : string;
  k_line : int;
  k_col : int;
  k_trace : step list;  (* entry-to-sink steps inside the callee, sink last *)
}

type summary = { s_ret : origin list; s_sinks : psink list }

type fn = {
  f_file : string;
  f_path : string list;  (* module path segments + function name *)
  f_params : (string * string) list;  (* label (or ""), binder name *)
  f_body : expression;
  mutable f_sum : summary;
  mutable f_callees : string list;
}

type program = {
  p_fns : fn array;
  p_by_path : (string, int list) Hashtbl.t;  (* dotted path -> indices *)
  p_by_name : (string, int list) Hashtbl.t;  (* last segment -> indices *)
}

let step ~what (loc : Location.t) =
  { st_what = what; st_file = loc.loc_start.pos_fname; st_line = loc.loc_start.pos_lnum }

let origin_key o =
  Printf.sprintf "%s/%s/%B/%B"
    (match o.o_param with Some i -> string_of_int i | None -> "-")
    o.o_src o.o_lb o.o_ub

(* Merge origins with the same carrier (param/source), OR-ing their
   evidence bits, and cap the set so pathological unions cannot blow
   up the fixpoint.  The merge is what keeps structure-coarse tracking
   usable: a record that packs validated offsets next to the raw byte
   string it indexes ([Wire.view]) unions both, and without the merge
   every field access would inherit the unchecked raw-bytes origin.
   The cost is deliberate: two values of the *same* source travelling
   in one structure share their strongest evidence. *)
let norm os =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let k =
        Printf.sprintf "%s/%s"
          (match o.o_param with Some i -> string_of_int i | None -> "-")
          o.o_src
      in
      match Hashtbl.find_opt tbl k with
      | None ->
        Hashtbl.replace tbl k o;
        order := k :: !order
      | Some prev ->
        Hashtbl.replace tbl k { prev with o_lb = prev.o_lb || o.o_lb; o_ub = prev.o_ub || o.o_ub })
    os;
  let merged = List.rev !order |> List.filter_map (Hashtbl.find_opt tbl) in
  let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
  take 16 merged

let union a b = norm (a @ b)

(* Side-level evidence: a clean side (no origins) counts as bounded. *)
let flags os =
  ( (match os with [] -> true | _ -> List.for_all (fun o -> o.o_lb) os),
    match os with [] -> true | _ -> List.for_all (fun o -> o.o_ub) os )

let with_flags (lb, ub) os = List.map (fun o -> { o with o_lb = lb; o_ub = ub }) os

(* ------------------------------------------------------------------ *)
(* Source / sink / sanitizer catalogs                                   *)
(* ------------------------------------------------------------------ *)

(* Suffix-matched against the (resolved when possible) dotted path of a
   call.  The bits are what the decoder itself guarantees about the
   value: fixed-width reads are bounded on both sides, [u32] cannot be
   negative, [i64] guarantees nothing.  [Get.varint] is deliberately
   absent: its body is analyzed, so only an implementation that
   re-checks for sign overflow earns its lower bound - the regression
   fixture that reintroduces the PR-4 bug is distinguished exactly
   there. *)
let sources =
  [ ([ "Get"; "u8" ], true, true);
    ([ "Get"; "u16" ], true, true);
    ([ "Get"; "u32" ], true, false);
    ([ "Get"; "i64" ], false, false);
    ([ "Get"; "value" ], true, true);
    ([ "Get"; "string" ], false, false);
    ([ "Get"; "take" ], false, false);
    ([ "Reader"; "next" ], false, false);
    ([ "Reader"; "next_view" ], false, false);
    ([ "Wire"; "decode_body" ], false, false);
    ([ "Wire"; "decode_body_view" ], false, false);
    ([ "Batch"; "decode" ], false, false);
    ([ "Wal"; "load" ], false, false);
    ([ "Wal"; "decode" ], false, false);
    ([ "Rsm"; "decode_batch" ], false, false) ]

(* Record-field calls that hand out wire data: codec [dec] closures and
   transport receive hooks. *)
let field_sources = [ "dec"; "recv_view"; "recv" ]

(* Sources whose value is a decoded *string* (or a structure of them):
   harmless as a table key, so the Key sink skips them - hash tables
   keyed by payload bytes (e.g. committed tx dedup) are legitimate. *)
let string_sources = [ "Get.string"; "Get.take"; "Rsm.decode_batch"; "Batch.decode" ]

let rec is_suffix suf l =
  let ls = List.length suf and ll = List.length l in
  if ls > ll then false
  else if ls = ll then List.for_all2 String.equal suf l
  else match l with [] -> false | _ :: tl -> is_suffix suf tl

let seed_of segs =
  List.find_map
    (fun (key, lb, ub) -> if is_suffix key segs then Some (String.concat "." key, lb, ub) else None)
    sources

(* name -> argument positions that size an allocation (need lb && ub) *)
let alloc_sinks =
  [ ("Bytes.create", [ 0 ]); ("Bytes.make", [ 0 ]); ("String.make", [ 0 ]);
    ("String.init", [ 0 ]); ("Array.make", [ 0 ]); ("Array.init", [ 0 ]);
    ("Array.create_float", [ 0 ]); ("List.init", [ 0 ]); ("Buffer.create", [ 0 ]);
    ("String.sub", [ 2 ]); ("Bytes.sub", [ 2 ]); ("Bytes.sub_string", [ 2 ]);
    ("Buffer.sub", [ 2 ]); ("Buffer.add_substring", [ 3 ]); ("Buffer.add_subbytes", [ 3 ]);
    ("Bytes.blit", [ 4 ]); ("String.blit", [ 4 ]); ("Bytes.blit_string", [ 4 ]) ]

(* name -> argument positions used as an index/offset (need lb && ub) *)
let index_sinks =
  [ ("String.sub", [ 1 ]); ("Bytes.sub", [ 1 ]); ("Bytes.sub_string", [ 1 ]);
    ("Buffer.sub", [ 1 ]); ("Buffer.add_substring", [ 2 ]); ("Buffer.add_subbytes", [ 2 ]);
    ("Array.get", [ 1 ]); ("Array.set", [ 1 ]); ("Bytes.get", [ 1 ]); ("Bytes.set", [ 1 ]);
    ("String.get", [ 1 ]); ("String.unsafe_get", [ 1 ]); ("Bytes.unsafe_get", [ 1 ]);
    ("Array.unsafe_get", [ 1 ]); ("String.get_uint16_be", [ 1 ]);
    ("String.get_int32_le", [ 1 ]); ("String.get_int32_be", [ 1 ]);
    ("Bytes.get_int32_le", [ 1 ]); ("Bytes.set_uint16_be", [ 1 ]);
    ("Bytes.set_int32_be", [ 1 ]); ("Bytes.blit", [ 1; 3 ]); ("String.blit", [ 1; 3 ]);
    ("Bytes.blit_string", [ 1; 3 ]); ("Buffer.truncate", [ 1 ]) ]

(* name -> key argument of an attacker-growable table (need ub) *)
let key_sinks = [ ("Hashtbl.add", [ 1 ]); ("Hashtbl.replace", [ 1 ]) ]

(* Results that are always in-range no matter the argument taint. *)
let clean_fns =
  [ "String.length"; "Bytes.length"; "Array.length"; "List.length"; "Buffer.length";
    "Queue.length"; "Hashtbl.length"; "String.index_opt"; "String.index_from_opt";
    "String.rindex_opt"; "String.index"; "String.rindex"; "Buffer.contents" ]

(* Taint flows through unchanged. *)
let transparent_fns =
  [ "Int64.to_int"; "Int64.of_int"; "Int32.to_int"; "Int32.of_int"; "Nativeint.to_int";
    "Char.code"; "Char.chr"; "fst"; "snd"; "ref"; "!"; "Lazy.force"; "Option.value";
    "Option.some"; "Option.join" ]

(* Parsing attacker bytes into an int: origins survive, bounds do not. *)
let reset_fns =
  [ "int_of_string"; "int_of_string_opt"; "Int64.of_string"; "Int64.of_string_opt";
    "Int32.of_string"; "Int32.of_string_opt" ]

(* Higher-order stdlib traversals: (callback position, container
   position, does the result carry the callback's result). *)
let hof_fns =
  [ ("List.iter", 0, 1, false); ("List.iteri", 0, 1, false); ("List.map", 0, 1, true);
    ("List.mapi", 0, 1, true); ("List.filter_map", 0, 1, true);
    ("List.concat_map", 0, 1, true); ("List.filter", 0, 1, false);
    ("List.exists", 0, 1, false); ("List.for_all", 0, 1, false);
    ("Array.iter", 0, 1, false); ("Array.iteri", 0, 1, false); ("Array.map", 0, 1, true);
    ("Option.iter", 0, 1, false); ("Option.map", 0, 1, true);
    ("List.fold_left", 0, 2, true) ]

let is_sanitizer_name s =
  let segs = String.split_on_char '.' s in
  List.exists (fun m -> String.equal m "Bounds" || String.equal m "Quorum") segs
  || String.equal s "Hashtbl.mem"

(* ------------------------------------------------------------------ *)
(* Harvesting functions from the parsetrees                             *)
(* ------------------------------------------------------------------ *)

type harvest = { mutable h_fns : fn list }

let binder_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let label_str = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled s | Asttypes.Optional s -> s

let rec strip_fn params e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
    let name = match binder_name pat with Some n -> n | None -> "_" in
    strip_fn (params @ [ (label_str lbl, name) ]) body
  | Pexp_newtype (_, body) -> strip_fn params body
  | Pexp_function _ -> (params @ [ ("", "*match*") ], e)
  | Pexp_constraint (body, _) -> strip_fn params body
  | _ -> (params, e)

let register h ~file path params body =
  h.h_fns <-
    { f_file = file; f_path = path; f_params = params; f_body = body;
      f_sum = { s_ret = []; s_sinks = [] }; f_callees = [] }
    :: h.h_fns

(* Only structure-level bindings become summarized program nodes.
   Expression-level [let]-bound functions are closures over the
   enclosing scope; the evaluator inlines them at their call sites so
   captured variables keep their taint (a standalone summary would see
   every free variable as clean). *)
let rec harvest_structure h ~file modpath items =
  List.iter (harvest_item h ~file modpath) items

and harvest_item h ~file modpath item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        match binder_name vb.pvb_pat with
        | Some name ->
          let params, body = strip_fn [] vb.pvb_expr in
          register h ~file (modpath @ [ name ]) params body
        | None -> ())
      vbs
  | Pstr_module mb -> harvest_module h ~file modpath mb
  | Pstr_recmodule mbs -> List.iter (harvest_module h ~file modpath) mbs
  | Pstr_include { pincl_mod = m; _ } -> harvest_modexpr h ~file modpath None m
  | _ -> ()

and harvest_module h ~file modpath mb =
  match mb.pmb_name.txt with
  | Some name -> harvest_modexpr h ~file modpath (Some name) mb.pmb_expr
  | None -> ()

and harvest_modexpr h ~file modpath name me =
  match me.pmod_desc with
  | Pmod_structure items ->
    let path = match name with Some n -> modpath @ [ n ] | None -> modpath in
    harvest_structure h ~file path items
  | Pmod_functor (_, body) -> harvest_modexpr h ~file modpath name body
  | Pmod_constraint (m, _) -> harvest_modexpr h ~file modpath name m
  | _ -> ()

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Name resolution                                                      *)
(* ------------------------------------------------------------------ *)

let dotted = String.concat "."

let rec drop_last = function [] | [ _ ] -> [] | x :: tl -> x :: drop_last tl

let last_of l = List.nth l (List.length l - 1)

(* Exact path match, preferring a definition in the caller's own file
   (and the latest such definition, which models shadowing). *)
let lookup_exact prog ~file key =
  match Hashtbl.find_opt prog.p_by_path (dotted key) with
  | None | Some [] -> None
  | Some ids -> (
    let same = List.filter (fun i -> String.equal prog.p_fns.(i).f_file file) ids in
    match same with
    | [] -> ( match ids with [ i ] -> Some i | _ -> None)
    | l -> Some (last_of l))

let resolve prog (caller : fn) segs =
  match segs with
  | [] -> None
  | _ -> (
    let modpath = drop_last caller.f_path in
    let rec scopes pre =
      match lookup_exact prog ~file:caller.f_file (pre @ segs) with
      | Some i -> Some i
      | None -> ( match pre with [] -> None | _ -> scopes (drop_last pre))
    in
    match scopes modpath with
    | Some i -> Some i
    | None -> (
      (* global suffix match on the final segment *)
      match Hashtbl.find_opt prog.p_by_name (last_of segs) with
      | None -> None
      | Some ids -> (
        let cands =
          List.filter
            (fun i ->
              let p = prog.p_fns.(i).f_path in
              is_suffix segs p || is_suffix p segs)
            ids
        in
        let distinct = List.sort_uniq String.compare (List.map (fun i -> dotted prog.p_fns.(i).f_path) cands) in
        match (cands, distinct) with
        | [ i ], _ -> Some i
        | _, [ _ ] -> Some (last_of cands)
        | _ ->
          (* ambiguous: prefer a single same-file candidate, else give up *)
          let same = List.filter (fun i -> String.equal prog.p_fns.(i).f_file caller.f_file) cands in
          (match same with [ i ] -> Some i | _ -> None))))

(* ------------------------------------------------------------------ *)
(* The evaluator                                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  c_prog : program;
  c_fn : fn;
  c_env : (string, origin list) Hashtbl.t;
  c_locals : (string, (string * string) list * expression) Hashtbl.t;
      (* expression-level let-bound functions, inlined at call sites *)
  c_report : bool;
  mutable c_depth : int;  (* current inlining depth (recursion cap) *)
  mutable c_sinks : psink list;
  mutable c_finds : Lint.finding list;
  mutable c_callees : string list;
}

let kind_rule = function Alloc | Loop -> "unbounded-alloc" | Index | Key -> "wire-taint"

let missing_str ~lb ~ub =
  if lb && ub then "bounds checks"
  else if lb then "a lower-bound (non-negative) check"
  else "an upper-bound check"

let kind_verb = function
  | Alloc -> "sizes" | Index -> "indexes" | Key -> "keys" | Loop -> "bounds"

let add_finding ctx ~kind ~what ~file ~line ~col ~need_lb ~need_ub ~src trace =
  let message =
    Printf.sprintf "wire-derived value (from %s) %s %s without %s"
      (match src with "" -> "the wire" | s -> s)
      (kind_verb kind) what
      (missing_str ~lb:need_lb ~ub:need_ub)
  in
  let notes =
    List.map (fun st -> Printf.sprintf "%s at %s:%d" st.st_what st.st_file st.st_line) trace
  in
  ctx.c_finds <-
    { Lint.rule = kind_rule kind; severity = Lint.Error; file; line; col; message; notes }
    :: ctx.c_finds

let sink_pos (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let check_sink ctx ~loc ~kind ~what os =
  let file, line, col = sink_pos loc in
  let sstep = step ~what:("sink " ^ what) loc in
  List.iter
    (fun o ->
      let need_lb = (match kind with Alloc | Index -> true | Key | Loop -> false) && not o.o_lb in
      let need_ub = not o.o_ub in
      let skip = match kind with Key -> List.mem o.o_src string_sources | _ -> false in
      if (need_lb || need_ub) && not skip then
        match o.o_param with
        | Some p ->
          ctx.c_sinks <-
            { k_param = p; k_kind = kind; k_need_lb = need_lb; k_need_ub = need_ub;
              k_what = what; k_file = file; k_line = line; k_col = col;
              k_trace = o.o_trace @ [ sstep ] }
            :: ctx.c_sinks
        | None ->
          if ctx.c_report then
            add_finding ctx ~kind ~what ~file ~line ~col ~need_lb ~need_ub ~src:o.o_src
              (o.o_trace @ [ sstep ]))
    os

(* Positional/labelled argument matching against the callee's params. *)
let match_args (params : (string * string) list) (avs : (Asttypes.arg_label * origin list) list) =
  let remaining = ref (List.mapi (fun i (lbl, _) -> (i, lbl)) params) in
  let out = ref [] in
  List.iter
    (fun (albl, os) ->
      match albl with
      | Asttypes.Labelled l | Asttypes.Optional l -> (
        match List.find_opt (fun (_, pl) -> String.equal pl l) !remaining with
        | Some (i, _) ->
          remaining := List.filter (fun (j, _) -> j <> i) !remaining;
          out := (i, os) :: !out
        | None -> ())
      | Asttypes.Nolabel -> (
        (* positional arguments skip labelled/optional parameters *)
        match List.find_opt (fun (_, pl) -> String.equal pl "") !remaining with
        | Some (i, _) ->
          remaining := List.filter (fun (j, _) -> j <> i) !remaining;
          out := (i, os) :: !out
        | None -> ()))
    avs;
  !out

let apply_summary ctx loc (callee : fn) (avs : (Asttypes.arg_label * origin list) list) =
  let name = dotted callee.f_path in
  ctx.c_callees <- name :: ctx.c_callees;
  let bound = match_args callee.f_params avs in
  let of_param p = match List.assoc_opt p bound with Some os -> os | None -> [] in
  let callstep = step ~what:("via " ^ name) loc in
  List.iter
    (fun k ->
      List.iter
        (fun o ->
          let need_lb = k.k_need_lb && not o.o_lb in
          let need_ub = k.k_need_ub && not o.o_ub in
          let skip = match k.k_kind with Key -> List.mem o.o_src string_sources | _ -> false in
          if (need_lb || need_ub) && not skip then
            match o.o_param with
            | Some p ->
              ctx.c_sinks <-
                { k with k_param = p; k_need_lb = need_lb; k_need_ub = need_ub;
                  k_trace = o.o_trace @ (callstep :: k.k_trace) }
                :: ctx.c_sinks
            | None ->
              if ctx.c_report then
                add_finding ctx ~kind:k.k_kind ~what:k.k_what ~file:k.k_file ~line:k.k_line
                  ~col:k.k_col ~need_lb ~need_ub ~src:o.o_src
                  (o.o_trace @ (callstep :: k.k_trace)))
        (of_param k.k_param))
    callee.f_sum.s_sinks;
  List.concat_map
    (fun r ->
      match r.o_param with
      | None -> [ { r with o_trace = r.o_trace @ [ callstep ] } ]
      | Some p ->
        List.map
          (fun o ->
            { o with o_lb = o.o_lb || r.o_lb; o_ub = o.o_ub || r.o_ub;
              o_trace = o.o_trace @ [ callstep ] })
          (of_param p))
    callee.f_sum.s_ret
  |> norm

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (q, { txt; _ }) -> txt :: pat_vars q
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, q)) -> pat_vars q
  | Ppat_variant (_, Some q) -> pat_vars q
  | Ppat_record (fields, _) -> List.concat_map (fun (_, q) -> pat_vars q) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (q, _) | Ppat_open (_, q) | Ppat_lazy q -> pat_vars q
  | _ -> []

let idents_of e =
  let out = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } -> out := n :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr it x) }
  in
  it.expr it e;
  !out

let rec is_zeroish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> (
    match int_of_string_opt s with Some v -> v >= -1 && v <= 1 | None -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "~-"; _ }; _ }, [ (_, x) ]) ->
    is_zeroish x
  | _ -> false

let is_int_literal e =
  match e.pexp_desc with Pexp_constant (Pconst_integer _) -> true | _ -> false

let refine_var ctx n ~lb ~ub =
  match Hashtbl.find_opt ctx.c_env n with
  | None -> ()
  | Some os ->
    Hashtbl.replace ctx.c_env n
      (List.map (fun o -> { o with o_lb = o.o_lb || lb; o_ub = o.o_ub || ub }) os)

(* Upgrade evidence bits from a boolean condition.  Path-insensitive on
   purpose: guards in this codebase either raise/return on the bad
   branch or select the safe value, so letting the evidence persist
   past the conditional matches how the guards are written. *)
let rec refine_cond ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    let op = strip_stdlib (lid_str txt) in
    match (op, args) with
    | ("&&" | "||"), [ (_, a); (_, b) ] ->
      refine_cond ctx a;
      refine_cond ctx b
    | "not", [ (_, a) ] -> refine_cond ctx a
    | ("<" | ">" | "<=" | ">=" | "="), [ (_, a); (_, b) ] ->
      let upgrade side other =
        let zero = is_zeroish other in
        let lb = String.equal op "=" || zero in
        let ub = String.equal op "=" || not zero in
        List.iter (fun n -> refine_var ctx n ~lb ~ub) (idents_of side)
      in
      upgrade a b;
      upgrade b a
    | _ ->
      if is_sanitizer_name op then
        List.iter (fun (_, a) -> List.iter (fun n -> refine_var ctx n ~lb:true ~ub:true) (idents_of a)) args)
  | _ -> ()

let bind_many ctx names os body =
  let saved = List.map (fun n -> (n, Hashtbl.find_opt ctx.c_env n)) names in
  List.iter (fun n -> if not (String.equal n "_") then Hashtbl.replace ctx.c_env n os) names;
  let r = body () in
  List.iter
    (fun (n, old) ->
      match old with
      | Some v -> Hashtbl.replace ctx.c_env n v
      | None -> Hashtbl.remove ctx.c_env n)
    saved;
  r

let is_local_fn vb =
  match binder_name vb.pvb_pat with
  | None -> false
  | Some _ ->
    let params, _ = strip_fn [] vb.pvb_expr in
    params <> []

let rec eval ctx e =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> (
    match Hashtbl.find_opt ctx.c_env n with Some os -> os | None -> [])
  | Pexp_ident _ | Pexp_constant _ -> []
  | Pexp_apply (h, args) -> eval_apply ctx loc h args
  | Pexp_let (_, vbs, body) ->
    (* local functions are captured for call-site inlining; plain
       bindings are evaluated and tracked in the environment *)
    let fns, plain = List.partition is_local_fn vbs in
    let saved_locals =
      List.filter_map
        (fun vb ->
          match binder_name vb.pvb_pat with
          | None -> None
          | Some name ->
            let params, fbody = strip_fn [] vb.pvb_expr in
            let old = Hashtbl.find_opt ctx.c_locals name in
            Hashtbl.replace ctx.c_locals name (params, fbody);
            Some (name, old))
        fns
    in
    let binds = List.map (fun vb -> (pat_vars vb.pvb_pat, eval ctx vb.pvb_expr)) plain in
    let rec go = function
      | [] -> eval ctx body
      | (vars, os) :: rest -> bind_many ctx vars os (fun () -> go rest)
    in
    let r = go binds in
    List.iter
      (fun (name, old) ->
        match old with
        | Some v -> Hashtbl.replace ctx.c_locals name v
        | None -> Hashtbl.remove ctx.c_locals name)
      saved_locals;
    r
  | Pexp_fun (_, dflt, pat, body) ->
    (match dflt with Some d -> ignore (eval ctx d) | None -> ());
    bind_many ctx (pat_vars pat) [] (fun () -> ignore (eval ctx body));
    []
  | Pexp_function cases -> eval_cases ctx [] cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let os = eval ctx scrut in
    eval_cases ctx os cases
  | Pexp_ifthenelse (c, t, eo) ->
    ignore (eval ctx c);
    refine_cond ctx c;
    let a = eval ctx t in
    let b = match eo with Some x -> eval ctx x | None -> [] in
    union a b
  | Pexp_sequence (a, b) ->
    ignore (eval ctx a);
    eval ctx b
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> eval ctx a
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> []
  | Pexp_tuple es | Pexp_array es ->
    List.fold_left (fun acc x -> union acc (eval ctx x)) [] es
  | Pexp_record (fields, base) ->
    let acc = match base with Some b -> eval ctx b | None -> [] in
    List.fold_left (fun acc (_, x) -> union acc (eval ctx x)) acc fields
  | Pexp_field (b, _) -> eval ctx b
  | Pexp_setfield (b, _, v) ->
    ignore (eval ctx b);
    ignore (eval ctx v);
    []
  | Pexp_while (c, b) ->
    ignore (eval ctx c);
    refine_cond ctx c;
    ignore (eval ctx b);
    []
  | Pexp_for (pat, lo, hi, dir, body) ->
    let lo_os = eval ctx lo in
    let hi_os = eval ctx hi in
    let bound = match dir with Asttypes.Upto -> hi_os | Asttypes.Downto -> lo_os in
    check_sink ctx ~loc ~kind:Loop ~what:"a for-loop" bound;
    bind_many ctx (pat_vars pat) [] (fun () -> ignore (eval ctx body));
    []
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) -> eval ctx a
  | Pexp_assert a ->
    ignore (eval ctx a);
    refine_cond ctx a;
    []
  | Pexp_lazy a | Pexp_open (_, a) | Pexp_letmodule (_, _, a) | Pexp_letexception (_, a)
  | Pexp_newtype (_, a) ->
    eval ctx a
  | Pexp_letop { let_; ands; body; _ } ->
    ignore (eval ctx let_.pbop_exp);
    List.iter (fun a -> ignore (eval ctx a.pbop_exp)) ands;
    eval ctx body
  | _ -> []

and eval_cases ctx scrut cases =
  List.fold_left
    (fun acc c ->
      bind_many ctx (pat_vars c.pc_lhs) scrut (fun () ->
          (match c.pc_guard with
          | Some g ->
            ignore (eval ctx g);
            refine_cond ctx g
          | None -> ());
          union acc (eval ctx c.pc_rhs)))
    [] cases

and eval_apply ctx loc h args =
  match h.pexp_desc with
  | Pexp_ident { txt; _ } -> eval_call ctx loc (strip_stdlib (lid_str txt)) args
  | Pexp_apply (h2, args2) -> eval_apply ctx loc h2 (args2 @ args)
  | Pexp_field (b, { txt = flid; _ }) ->
    let _base = eval ctx b in
    List.iter (fun (_, a) -> ignore (eval ctx a)) args;
    let fname = Longident.last flid in
    if List.mem fname field_sources then
      [ { o_param = None; o_src = "." ^ fname; o_lb = false; o_ub = false;
          o_trace = [ step ~what:("source ." ^ fname) loc ] } ]
    else []
  | _ ->
    ignore (eval ctx h);
    List.iter (fun (_, a) -> ignore (eval ctx a)) args;
    []

and eval_pipe ctx loc f x =
  match f.pexp_desc with
  | Pexp_apply (h, fargs) -> eval_apply ctx loc h (fargs @ [ (Asttypes.Nolabel, x) ])
  | _ -> eval_apply ctx loc f [ (Asttypes.Nolabel, x) ]

and eval_call ctx loc name args =
  match (name, args) with
  | "|>", [ (_, x); (_, f) ] -> eval_pipe ctx loc f x
  | "@@", [ (_, f); (_, x) ] -> eval_pipe ctx loc f x
  | ":=", [ (_, r); (_, v) ] ->
    let vos = eval ctx v in
    (match r.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> (
      match Hashtbl.find_opt ctx.c_env n with
      | Some old -> Hashtbl.replace ctx.c_env n (union old vos)
      | None -> Hashtbl.replace ctx.c_env n vos)
    | _ -> ignore (eval ctx r));
    []
  | _ -> (
    let avs = List.map (fun (lbl, a) -> (lbl, a, eval ctx a)) args in
    let local =
      if String.contains name '.' then None else Hashtbl.find_opt ctx.c_locals name
    in
    match local with
    | Some lf -> inline_local ctx lf avs
    | None ->
    let arg i = match List.nth_opt avs i with Some (_, _, os) -> os | None -> [] in
    let arg_expr i = match List.nth_opt avs i with Some (_, a, _) -> Some a | None -> None in
    let a0 = arg 0 and a1 = arg 1 in
    let la, ua = flags a0 in
    let lb2, ub2 = flags a1 in
    let u2 = union a0 a1 in
    let run_sinks () =
      let check table kind =
        match List.assoc_opt name table with
        | None -> ()
        | Some idxs ->
          List.iter (fun i -> check_sink ctx ~loc ~kind ~what:name (arg i)) idxs
      in
      check alloc_sinks Alloc;
      check index_sinks Index;
      check key_sinks Key
    in
    match name with
    | "+" -> with_flags (la && lb2, ua && ub2) u2
    | "-" -> with_flags (false, ua && lb2) u2
    | "*" -> with_flags (la && lb2, false) u2
    | "/" -> with_flags (la && lb2, ua) u2
    | "mod" -> with_flags (la, ub2) u2
    | "land" ->
      if (match a0 with [] -> true | _ -> false) || (match a1 with [] -> true | _ -> false)
      then with_flags (true, true) u2
      else if la && lb2 then with_flags (true, ua || ub2) u2
      else with_flags (false, false) u2
    | "lor" | "lxor" -> with_flags (la && lb2, ua && ub2) u2
    | "lsl" ->
      (* a shift by a non-constant amount can push any value past the
         sign bit - the exact shape of the PR-4 varint overflow *)
      if match arg_expr 1 with Some e -> is_int_literal e | None -> false then
        with_flags (la, ua) u2
      else with_flags (false, false) u2
    | "lsr" -> with_flags (true, ua) a0
    | "asr" -> with_flags (la, ua) a0
    | "~-" -> with_flags (false, false) a0
    | "succ" -> with_flags (la, false) a0
    | "pred" -> with_flags (false, ua) a0
    | "abs" -> with_flags (true, ua) a0
    | "min" ->
      if match a0 with [] -> true | _ -> false then with_flags (lb2, true) a1
      else if match a1 with [] -> true | _ -> false then with_flags (la, true) a0
      else with_flags (la && lb2, ua || ub2) u2
    | "max" ->
      if match a0 with [] -> true | _ -> false then with_flags (true, ub2) a1
      else if match a1 with [] -> true | _ -> false then with_flags (true, ua) a0
      else with_flags (la || lb2, ua && ub2) u2
    | "=" | "<>" | "<" | ">" | "<=" | ">=" | "&&" | "||" | "not" | "==" | "!=" -> []
    | "^" | "@" -> u2
    | "ignore" | "raise" | "raise_notrace" -> []
    | _ ->
      if List.mem name clean_fns then []
      else if List.mem name transparent_fns then a0
      else if List.mem name reset_fns then with_flags (false, false) a0
      else if
        (match List.assoc_opt name index_sinks with Some _ -> true | None -> false)
        || (match List.assoc_opt name alloc_sinks with Some _ -> true | None -> false)
        || (match List.assoc_opt name key_sinks with Some _ -> true | None -> false)
      then (
        run_sinks ();
        match name with
        | "String.sub" | "Bytes.sub" | "Bytes.sub_string" -> a0
        | "String.get" | "Bytes.get" | "String.unsafe_get" | "Bytes.unsafe_get"
        | "String.get_uint16_be" ->
          with_flags (true, true) a0
        (* a signed 32-bit read is bounded above but may be negative *)
        | "String.get_int32_le" | "String.get_int32_be" | "Bytes.get_int32_le" ->
          with_flags (false, true) a0
        | "Array.get" | "Array.unsafe_get" -> a0
        | _ -> [])
      else (
        match List.find_opt (fun (n, _, _, _) -> String.equal n name) hof_fns with
        | Some (_, fpos, cpos, carries) -> eval_hof ctx loc ~fpos ~cpos ~carries avs
        | None -> (
          let segs = String.split_on_char '.' name in
          match seed_of segs with
          | Some (src, lb, ub) ->
            [ { o_param = None; o_src = src; o_lb = lb; o_ub = ub;
                o_trace = [ step ~what:("source " ^ src) loc ] } ]
          | None -> (
            match resolve ctx.c_prog ctx.c_fn segs with
            | Some i -> (
              let callee = ctx.c_prog.p_fns.(i) in
              match seed_of callee.f_path with
              | Some (src, lb, ub) ->
                ctx.c_callees <- dotted callee.f_path :: ctx.c_callees;
                [ { o_param = None; o_src = src; o_lb = lb; o_ub = ub;
                    o_trace = [ step ~what:("source " ^ src) loc ] } ]
              | None ->
                apply_summary ctx loc callee (List.map (fun (l, _, os) -> (l, os)) avs))
            | None -> []))))

(* Inline an expression-level local function at its call site: the
   body is evaluated in the current environment, so variables the
   closure captured keep their taint.  [c_depth] caps recursion
   ([Get.varint]'s [go] loop converges within the cap because the
   evidence bits only ever strengthen). *)
and inline_local ctx (params, fbody) avs =
  if ctx.c_depth >= 5 then []
  else (
    ctx.c_depth <- ctx.c_depth + 1;
    let bound = match_args params (List.map (fun (l, _, os) -> (l, os)) avs) in
    let rec go i = function
      | [] -> (
        match fbody.pexp_desc with
        | Pexp_function cases ->
          let scrut =
            match List.assoc_opt (List.length params - 1) bound with
            | Some os -> os
            | None -> []
          in
          eval_cases ctx scrut cases
        | _ -> eval ctx fbody)
      | (_, n) :: rest ->
        let os = match List.assoc_opt i bound with Some os -> os | None -> [] in
        bind_many ctx [ n ] os (fun () -> go (i + 1) rest)
    in
    let r = go 0 params in
    ctx.c_depth <- ctx.c_depth - 1;
    r)

(* Higher-order stdlib traversal: evaluate the callback with its last
   parameter bound to the container's element taint. *)
and eval_hof ctx loc ~fpos ~cpos ~carries avs =
  let arg i = match List.nth_opt avs i with Some (_, _, os) -> os | None -> [] in
  let cont = arg cpos in
  let init = if carries && cpos = 2 then arg 1 else [] in
  let res =
    match List.nth_opt avs fpos with
    | Some (_, fe, _) -> (
      let params, body = strip_fn [] fe in
      match params with
      | [] -> (
        (* a named function: resolve and apply its summary *)
        match fe.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          let segs = String.split_on_char '.' (strip_stdlib (lid_str txt)) in
          match resolve ctx.c_prog ctx.c_fn segs with
          | Some i when (match seed_of ctx.c_prog.p_fns.(i).f_path with None -> true | Some _ -> false) ->
            apply_summary ctx loc ctx.c_prog.p_fns.(i) [ (Asttypes.Nolabel, cont) ]
          | _ -> [])
        | _ -> [])
      | _ -> (
        let names = List.map (fun (_, n) -> n) params in
        let lastn = last_of names in
        let others = List.filter (fun n -> not (String.equal n lastn)) names in
        bind_many ctx others [] (fun () ->
            bind_many ctx [ lastn ] cont (fun () ->
                match body.pexp_desc with
                | Pexp_function cases -> eval_cases ctx cont cases
                | _ -> eval ctx body))))
    | None -> []
  in
  if carries then union init res else []

(* ------------------------------------------------------------------ *)
(* Driver: fixpoint, then reporting                                     *)
(* ------------------------------------------------------------------ *)

let eval_fn prog fn ~report =
  let ctx =
    { c_prog = prog; c_fn = fn; c_env = Hashtbl.create 16; c_locals = Hashtbl.create 8;
      c_report = report; c_depth = 0; c_sinks = []; c_finds = []; c_callees = [] }
  in
  List.iteri
    (fun i (_, n) ->
      if not (String.equal n "_") then
        Hashtbl.replace ctx.c_env n
          [ { o_param = Some i; o_src = ""; o_lb = false; o_ub = false; o_trace = [] } ])
    fn.f_params;
  let ret =
    match fn.f_body.pexp_desc with
    | Pexp_function cases ->
      let scrut =
        match Hashtbl.find_opt ctx.c_env "*match*" with Some os -> os | None -> []
      in
      eval_cases ctx scrut cases
    | _ -> eval ctx fn.f_body
  in
  let sinks =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun k ->
        let key =
          Printf.sprintf "%d/%d/%B/%B/%s/%d/%d" k.k_param
            (match k.k_kind with Alloc -> 0 | Index -> 1 | Key -> 2 | Loop -> 3)
            k.k_need_lb k.k_need_ub k.k_file k.k_line k.k_col
        in
        if Hashtbl.mem seen key then false
        else (
          Hashtbl.replace seen key ();
          true))
      (List.rev ctx.c_sinks)
  in
  ({ s_ret = norm ret; s_sinks = sinks }, List.rev ctx.c_finds, List.sort_uniq String.compare ctx.c_callees)

let summary_sig s =
  let so o = origin_key o in
  let sk k =
    Printf.sprintf "%d|%d|%B|%B|%s|%d|%d" k.k_param
      (match k.k_kind with Alloc -> 0 | Index -> 1 | Key -> 2 | Loop -> 3)
      k.k_need_lb k.k_need_ub k.k_file k.k_line k.k_col
  in
  String.concat ";" (List.sort String.compare (List.map so s.s_ret))
  ^ "#"
  ^ String.concat ";" (List.sort String.compare (List.map sk s.s_sinks))

let build (srcs : Lint.source list) =
  let h = { h_fns = [] } in
  List.iter
    (fun (s : Lint.source) ->
      harvest_structure h ~file:s.Lint.path [ module_of_file s.Lint.path ] s.Lint.ast)
    srcs;
  let fns = Array.of_list (List.rev h.h_fns) in
  let by_path = Hashtbl.create 256 in
  let by_name = Hashtbl.create 256 in
  Array.iteri
    (fun i f ->
      let key = dotted f.f_path in
      let prev = match Hashtbl.find_opt by_path key with Some l -> l | None -> [] in
      Hashtbl.replace by_path key (prev @ [ i ]);
      let nkey = last_of f.f_path in
      let prev = match Hashtbl.find_opt by_name nkey with Some l -> l | None -> [] in
      Hashtbl.replace by_name nkey (prev @ [ i ]))
    fns;
  let prog = { p_fns = fns; p_by_path = by_path; p_by_name = by_name } in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass < 12 do
    changed := false;
    incr pass;
    Array.iter
      (fun fn ->
        let sum, _, callees = eval_fn prog fn ~report:false in
        if not (String.equal (summary_sig sum) (summary_sig fn.f_sum)) then changed := true;
        fn.f_sum <- sum;
        fn.f_callees <- callees)
      prog.p_fns
  done;
  prog

let findings prog =
  let out = ref [] in
  Array.iter
    (fun fn ->
      let _, finds, _ = eval_fn prog fn ~report:true in
      out := !out @ finds)
    prog.p_fns;
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Lint.finding) ->
      let key = Printf.sprintf "%s|%s|%d|%d" f.Lint.rule f.Lint.file f.Lint.line f.Lint.col in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.replace seen key ();
        true))
    !out

let analyze srcs = findings (build srcs)

let rule_names = [ "wire-taint"; "unbounded-alloc" ]

let pass = (rule_names, analyze)

(* ------------------------------------------------------------------ *)
(* Introspection (tests, tooling)                                       *)
(* ------------------------------------------------------------------ *)

let functions prog =
  Array.to_list prog.p_fns |> List.map (fun f -> dotted f.f_path) |> List.sort_uniq String.compare

let find_fn prog name =
  let segs = String.split_on_char '.' name in
  let matches =
    Array.to_list prog.p_fns |> List.filter (fun f -> is_suffix segs f.f_path)
  in
  match matches with f :: _ -> Some f | [] -> None

let callees prog name =
  match find_fn prog name with Some f -> f.f_callees | None -> []

let returns_taint prog name =
  match find_fn prog name with
  | Some f ->
    List.exists (fun o -> match o.o_param with None -> true | Some _ -> false) f.f_sum.s_ret
  | None -> false

let summary_string prog name =
  match find_fn prog name with
  | None -> "<not found>"
  | Some f ->
    let so o =
      Printf.sprintf "%s(lb=%B,ub=%B)"
        (match o.o_param with Some i -> Printf.sprintf "param%d" i | None -> o.o_src)
        o.o_lb o.o_ub
    in
    let sk k =
      Printf.sprintf "param%d->%s@%s:%d(need_lb=%B,need_ub=%B)" k.k_param k.k_what
        (Filename.basename k.k_file) k.k_line k.k_need_lb k.k_need_ub
    in
    Printf.sprintf "ret=[%s] sinks=[%s]"
      (String.concat "; " (List.map so f.f_sum.s_ret))
      (String.concat "; " (List.map sk f.f_sum.s_sinks))

let tainted_returns prog =
  Array.to_list prog.p_fns
  |> List.filter (fun f ->
         List.exists (fun o -> match o.o_param with None -> true | Some _ -> false) f.f_sum.s_ret)
  |> List.map (fun f -> dotted f.f_path)
  |> List.sort_uniq String.compare
