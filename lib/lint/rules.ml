open Parsetree

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)
(* ------------------------------------------------------------------ *)

let lid_str lid = String.concat "." (Longident.flatten lid)

let strip_stdlib s =
  if String.length s > 7 && String.equal (String.sub s 0 7) "Stdlib." then
    String.sub s 7 (String.length s - 7)
  else s

let finding ~rule ~severity ~(loc : Location.t) message =
  let p = loc.loc_start in
  { Lint.rule;
    severity;
    file = p.pos_fname;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    message;
    notes = [] }

(* Run [f] on every expression of the structure. *)
let iter_expressions ast f =
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e) }
  in
  it.structure it ast

let path_has_pair a b path = Lint.has_pair a b (Lint.segments path)

(* ------------------------------------------------------------------ *)
(* determinism                                                          *)
(* ------------------------------------------------------------------ *)

let det_banned =
  [ ("Hashtbl.iter", "Hashtbl iteration order is unspecified; iterate sorted keys (Det.iter_sorted) or keep an explicit list");
    ("Hashtbl.fold", "Hashtbl fold order is unspecified; fold over sorted bindings (Det.bindings) unless the operation is commutative");
    ("Sys.time", "CPU clock breaks bit-identical replay; use the executor's logical clock or a seeded Rng");
    ("Unix.time", "wall clock breaks bit-identical replay; use the executor's logical clock or a seeded Rng");
    ("Unix.gettimeofday", "wall clock breaks bit-identical replay; use the executor's logical clock or a seeded Rng")
  ]

let determinism_check src =
  let out = ref [] in
  iter_expressions src.Lint.ast (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
        let s = strip_stdlib (lid_str txt) in
        let hit =
          match List.assoc_opt s det_banned with
          | Some why -> Some (Printf.sprintf "%s: %s" s why)
          | None ->
            if String.length s >= 8 && String.equal (String.sub s 0 8) "Marshal." then
              Some (s ^ ": Marshal depends on in-memory sharing and the compiler version; use the wire codecs")
            else if
              String.length s >= 7
              && String.equal (String.sub s 0 7) "Random."
              && not (String.length s >= 13 && String.equal (String.sub s 0 13) "Random.State.")
            then
              Some (s ^ ": the global Random state is not replayable; use Bca_util.Rng (or Random.State with an explicit seed)")
            else None
        in
        (match hit with
        | Some msg ->
          out := finding ~rule:"determinism" ~severity:Lint.Error ~loc:e.pexp_loc msg :: !out
        | None -> ())
      | _ -> ());
  List.rev !out

let determinism =
  { Lint.name = "determinism";
    doc = "no wall clocks, global RNG, unordered Hashtbl iteration or Marshal in replay-critical code";
    severity = Lint.Error;
    applies = (fun ~path:_ profile -> match profile with Lint.Relaxed -> false | _ -> true);
    check = determinism_check }

(* ------------------------------------------------------------------ *)
(* poly-compare                                                         *)
(* ------------------------------------------------------------------ *)

(* Purely syntactic type discipline: an operand is "non-primitive" when
   the comparison must traverse structure to answer - a constructor
   application, a protocol constructor, a tuple, record or array
   literal.  Tag-only comparisons (None, [], booleans, unit, nullary
   polymorphic variants) never traverse payloads and stay allowed, which
   keeps the rule high-precision without type information. *)
let non_primitive e =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, arg) -> (
    let name = Longident.last txt in
    match (arg, name) with
    | None, ("true" | "false" | "()" | "None" | "[]") -> false
    | None, _ -> true
    | Some _, _ -> true)
  | Pexp_variant (_, Some _) -> true
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | _ -> false

let poly_ops = [ "="; "<>"; "min"; "max" ]

let is_bare_compare e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> String.equal (strip_stdlib (lid_str txt)) "compare"
  | _ -> false

let poly_compare_check src =
  let out = ref [] in
  let add loc msg = out := finding ~rule:"poly-compare" ~severity:Lint.Error ~loc msg :: !out in
  iter_expressions src.Lint.ast (fun e ->
      match e.pexp_desc with
      | Pexp_ident _ when is_bare_compare e ->
        add e.pexp_loc
          "polymorphic compare; use a monomorphic comparator (Int.compare, String.compare, Value.compare, ...)"
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let op = strip_stdlib (lid_str txt) in
        if List.mem op poly_ops then (
          match List.find_opt (fun (_, a) -> non_primitive a) args with
          | Some (_, a) ->
            add a.pexp_loc
              (Printf.sprintf
                 "structural (%s) on a non-primitive operand; use a typed equality (Value.equal, Option.is_some, a match, ...)"
                 op)
          | None -> ())
      | _ -> ());
  List.rev !out

let poly_compare =
  { Lint.name = "poly-compare";
    doc = "no structural =, <>, compare, min, max on non-primitive protocol values";
    severity = Lint.Error;
    applies = (fun ~path:_ profile -> match profile with Lint.Relaxed -> false | _ -> true);
    check = poly_compare_check }

(* ------------------------------------------------------------------ *)
(* quorum                                                               *)
(* ------------------------------------------------------------------ *)

let is_t_leaf e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident ("t" | "tt" | "tf"); _ } -> true
  | Pexp_field (_, { txt; _ }) -> String.equal (Longident.last txt) "t"
  | _ -> false

let is_n_leaf e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident ("n" | "nn"); _ } -> true
  | Pexp_field (_, { txt; _ }) -> String.equal (Longident.last txt) "n"
  | _ -> false

let is_int_const e =
  match e.pexp_desc with Pexp_constant (Pconst_integer _) -> true | _ -> false

(* Does [e] mention a leaf satisfying [pred], descending only through
   arithmetic operators?  Stopping at any other node keeps e.g.
   [f (g t) + 1] out of scope. *)
let rec arith_mentions pred e =
  pred e
  ||
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("+" | "-" | "*" | "/"); _ }; _ }, args)
    ->
    List.exists (fun (_, a) -> arith_mentions pred a) args
  | _ -> false

let is_threshold_expr e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("+" | "-"); _ }; _ }, [ _; _ ])
    ->
    arith_mentions is_t_leaf e && (arith_mentions is_int_const e || arith_mentions is_n_leaf e)
  | _ -> false

let quorum_check src =
  let out = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if is_threshold_expr e then
            (* flag the outermost threshold expression only: do not
               descend, so [(2*t) + 1] is one finding, not two *)
            out :=
              finding ~rule:"quorum" ~severity:Lint.Error ~loc:e.pexp_loc
                "raw quorum arithmetic; use Quorum.plurality (t+1), Quorum.supermajority (2t+1) or Quorum.available (n-t)"
              :: !out
          else Ast_iterator.default_iterator.expr it e) }
  in
  it.structure it src.Lint.ast;
  List.rev !out

let quorum =
  { Lint.name = "quorum";
    doc = "threshold arithmetic (t+1, 2t+1, n-t) lives in Bca_util.Quorum, nowhere else";
    severity = Lint.Error;
    applies =
      (fun ~path profile ->
        (match profile with Lint.Relaxed -> false | _ -> true)
        && not (path_has_pair "util" "quorum.ml" path));
    check = quorum_check }

(* ------------------------------------------------------------------ *)
(* total-decoding                                                       *)
(* ------------------------------------------------------------------ *)

let partial_banned =
  [ ("failwith", "raise a typed decode error (Get.Malformed) instead of a stringly failure");
    ("List.hd", "partial; match on the list or use a total accessor");
    ("List.tl", "partial; match on the list or use a total accessor");
    ("Option.get", "partial; match on the option");
    ("Obj.magic", "unchecked cast in a decode path")
  ]

let total_decoding_check src =
  let out = ref [] in
  let add loc msg = out := finding ~rule:"total-decoding" ~severity:Lint.Error ~loc msg :: !out in
  iter_expressions src.Lint.ast (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        let s = strip_stdlib (lid_str txt) in
        match List.assoc_opt s partial_banned with
        | Some why -> add e.pexp_loc (Printf.sprintf "%s: %s" s why)
        | None -> ())
      | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
        ->
        add e.pexp_loc "assert false aborts the process; raise a typed decode error instead"
      | _ -> ());
  List.rev !out

(* The batched hot path moved frame decoding into lib/transport (batch
   demux, in-place record decode), so the totality guarantee has to hold
   there too, not just in the codec layer.  lib/rsm decodes untrusted
   bytes twice over - its wire codecs and the in-proposal batch format
   ([Rsm.decode_batch]) - so the whole subsystem is in scope. *)
let in_wire_scope path =
  path_has_pair "lib" "wire" path
  || path_has_pair "lib" "transport" path
  || path_has_pair "lib" "rsm" path
  || String.equal (Filename.basename path) "wirefmt.ml"

let total_decoding =
  { Lint.name = "total-decoding";
    doc = "wire decode paths are total: no failwith, assert false, List.hd/tl, Option.get";
    severity = Lint.Error;
    applies = (fun ~path _ -> in_wire_scope path);
    check = total_decoding_check }

(* ------------------------------------------------------------------ *)
(* wire-coverage                                                        *)
(* ------------------------------------------------------------------ *)

(* Structural cross-check, driven entirely by the parsetrees:

   1. wirefmt.ml binds [module A = F.Make (Inner)] (or [F.Make (G.Rule
      (Inner))]) for every stack it encodes, or annotates a codec value
      [let c : M.msg Wire.codec] for a plain message variant; harvest
      those roots.
   2. The constructors of [A]'s message type are declared by the first
      [type msg] variant of [f.ml] next to wirefmt.ml; the constructors
      of the per-round protocol messages by the [type msg] variant of
      [inner.ml]; those of [M.msg] by [m.ml], followed through every
      [X.msg] its constructors carry for which [x.ml] sits alongside -
      or, when wirefmt.ml aliases [module X = Bca_lib.Y], for which
      [y.ml] sits in the sibling library directory [lib/].
   3. Every such constructor, qualified exactly as the codecs must
      qualify it ([A.C], [Inner.C], [M.C] or [X.C]), has to occur in
      wirefmt.ml both in pattern position (the encoder matches on it)
      and in expression position (the decoder rebuilds it).  [A.C] may
      instead occur as [P.C] inside a functor [module G (P : F.S)], which
      encodes every [F.Make] stack at once. *)

let first_msg_variant ast =
  let found = ref None in
  let it =
    { Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match (td.ptype_name.txt, td.ptype_kind) with
          | "msg", Ptype_variant cds when !found = None -> found := Some cds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td) }
  in
  it.structure it ast;
  !found

(* (constructor, qualifier): [Bca_byz.MEcho] yields ("MEcho", Some "Bca_byz") *)
let constructor_occurrences ast =
  let pats = ref [] and exps = ref [] in
  let record store (lid : Longident.t) =
    let qual =
      match lid with Longident.Ldot (p, _) -> Some (Longident.last p) | _ -> None
    in
    store := (Longident.last lid, qual) :: !store
  in
  let it =
    { Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) -> record pats txt
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_construct ({ txt; _ }, _) -> record exps txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it e) }
  in
  it.structure it ast;
  (!pats, !exps)

(* [module A = F.Make (Inner)], or with the round module itself a functor
   application, [module A = F.Make (G.Rule (Inner))]: (A, F, the innermost
   module ident, loc). *)
let functor_bindings ast =
  let rec innermost me =
    match me.pmod_desc with
    | Pmod_ident { txt = Longident.Lident inner; _ } -> Some inner
    | Pmod_apply (_, arg) -> innermost arg
    | _ -> None
  in
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_name = { txt = Some alias; _ };
            pmb_expr =
              { pmod_desc =
                  Pmod_apply
                    ({ pmod_desc = Pmod_ident { txt = Longident.Ldot (f, "Make"); _ }; _ }, arg);
                _ };
            pmb_loc;
            _ } ->
        Option.map (fun inner -> (alias, Longident.last f, inner, pmb_loc)) (innermost arg)
      | _ -> None)
    ast

(* Functors written once over a stack signature, [module G (A : F.S) = ...]:
   (A, F).  A constructor [A.C] there covers [C] for every [F.Make]
   binding. *)
let generic_params ast =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_expr =
              { pmod_desc =
                  Pmod_functor
                    ( Named
                        ( { txt = Some param; _ },
                          { pmty_desc = Pmty_ident { txt = Longident.Ldot (f, _); _ }; _ } ),
                      _ );
                _ };
            _ } -> Some (param, Longident.last f)
      | _ -> None)
    ast

(* Top-level codec values annotated [M.msg Wire.codec]: (M, loc). *)
let annotated_codecs ast =
  let root typ =
    match typ.ptyp_desc with
    | Ptyp_constr
        ( { txt = codec; _ },
          [ { ptyp_desc = Ptyp_constr ({ txt = Longident.Ldot (m, "msg"); _ }, []); _ } ] )
      when String.equal (Longident.last codec) "codec" -> Some (Longident.last m)
    | _ -> None
  in
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            let typ =
              match (vb.pvb_constraint, vb.pvb_pat.ppat_desc) with
              | Some (Pvc_constraint { typ; _ }), _ | None, Ppat_constraint (_, typ) -> Some typ
              | _ -> None
            in
            Option.map (fun m -> (m, vb.pvb_loc)) (Option.bind typ root))
          vbs
      | _ -> [])
    ast

(* Top-level aliases of another library's module, [module X = Bca_lib.Y]:
   (X, the path of [y.ml] in the sibling directory [lib] of [dir]). *)
let library_aliases ~dir ast =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          { pmb_name = { txt = Some alias; _ };
            pmb_expr =
              { pmod_desc = Pmod_ident { txt = Longident.Ldot (Longident.Lident lib, m); _ }; _ };
            _ } -> (
        match String.split_on_char '_' lib with
        | "Bca" :: (_ :: _ as rest) ->
          let lib_dir = Filename.concat (Filename.dirname dir) (String.concat "_" rest) in
          Some (alias, Filename.concat lib_dir (String.uncapitalize_ascii m ^ ".ml"))
        | _ -> None)
      | _ -> None)
    ast

(* The modules [X] whose [X.msg] a constructor declaration carries. *)
let carried_msg_modules cds =
  let found = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt = Longident.Ldot (x, "msg"); _ }, _) ->
            found := Longident.last x :: !found
          | _ -> ());
          Ast_iterator.default_iterator.typ it t) }
  in
  List.iter (it.constructor_declaration it) cds;
  List.rev !found

let wire_coverage_check src =
  let dir = Filename.dirname src.Lint.path in
  let out = ref [] in
  let add loc msg = out := finding ~rule:"wire-coverage" ~severity:Lint.Error ~loc msg :: !out in
  let pats, exps = constructor_occurrences src.Lint.ast in
  let occurs store ctor quals =
    List.exists
      (fun (c, q) ->
        String.equal c ctor
        && match q with Some q -> List.exists (String.equal q) quals | None -> false)
      store
  in
  let aliases = library_aliases ~dir src.Lint.ast in
  let file_of name =
    match List.assoc_opt name aliases with
    | Some file when Sys.file_exists file -> file
    | Some _ | None -> Filename.concat dir (String.uncapitalize_ascii name ^ ".ml")
  in
  let msg_variant_of_module ~loc name =
    let file = file_of name in
    match Lint.parse_file file with
    | Stdlib.Error e ->
      add loc (Printf.sprintf "cannot read message declarations of %s (%s): %s" name file e);
      []
    | Stdlib.Ok ast -> (
      match first_msg_variant ast with
      | Some ctors -> ctors
      | None ->
        add loc (Printf.sprintf "%s declares no 'type msg' variant (looked in %s)" name file);
        [])
  in
  let msg_ctors_of_module ~loc name =
    List.map (fun cd -> cd.pcd_name.txt) (msg_variant_of_module ~loc name)
  in
  let check_ctor ~loc ?(generic = []) ~qual ctor =
    let quals = qual :: generic in
    if not (occurs pats ctor quals) then
      add loc
        (Printf.sprintf "constructor %s.%s has no encode branch (never matched as a pattern)"
           qual ctor);
    if not (occurs exps ctor quals) then
      add loc
        (Printf.sprintf "constructor %s.%s has no decode branch (never constructed)" qual ctor)
  in
  let bindings = functor_bindings src.Lint.ast in
  let params = generic_params src.Lint.ast in
  let roots = annotated_codecs src.Lint.ast in
  if bindings = [] && roots = [] then
    add Location.none
      "wirefmt.ml binds no stack codec modules (module A = F.Make (Inner)) and annotates no codec (M.msg Wire.codec)";
  List.iter
    (fun (alias, functor_owner, inner, loc) ->
      let generic =
        List.filter_map
          (fun (param, f) -> if String.equal f functor_owner then Some param else None)
          params
      in
      List.iter (check_ctor ~loc ~generic ~qual:alias) (msg_ctors_of_module ~loc functor_owner);
      List.iter (check_ctor ~loc ~qual:inner) (msg_ctors_of_module ~loc inner))
    bindings;
  (* [M.msg] and, transitively, every sibling [X.msg] it carries *)
  let rec check_plain ~loc seen = function
    | [] -> seen
    | m :: rest when List.exists (String.equal m) seen -> check_plain ~loc seen rest
    | m :: rest ->
      let cds = msg_variant_of_module ~loc m in
      List.iter (fun cd -> check_ctor ~loc ~qual:m cd.pcd_name.txt) cds;
      let carried = List.filter (fun x -> Sys.file_exists (file_of x)) (carried_msg_modules cds) in
      check_plain ~loc (m :: seen) (carried @ rest)
  in
  ignore (List.fold_left (fun seen (m, loc) -> check_plain ~loc seen [ m ]) [] roots : string list);
  List.rev !out

let wire_coverage =
  { Lint.name = "wire-coverage";
    doc = "every stack message constructor has both an encode and a decode branch in wirefmt.ml";
    severity = Lint.Error;
    applies = (fun ~path _ -> String.equal (Filename.basename path) "wirefmt.ml");
    check = wire_coverage_check }

let all = [ determinism; poly_compare; quorum; total_decoding; wire_coverage ]
