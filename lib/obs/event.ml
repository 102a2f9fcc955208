module Value = Bca_util.Value

type pid = int

type t =
  | Send of { eid : int; src : pid; dst : pid; depth : int }
  | Deliver of { eid : int; src : pid; dst : pid; depth : int }
  | Drop of { eid : int; src : pid; dst : pid }
  | Duplicate of { eid : int; copy : int }
  | Redirect of { eid : int; dst : pid }
  | Swap of { eid1 : int; eid2 : int }
  | Crash of { pid : pid }
  | Round_enter of { pid : pid; round : int }
  | Quorum of { pid : pid; round : int; phase : string }
  | Coin_reveal of { pid : pid; round : int; value : Value.t }
  | Commit of { pid : pid; round : int; value : Value.t }
  | Violation of { kind : string; detail : string }
  | Transport of { pid : pid; peer : pid; op : string; bytes : int }
  | Slot_commit of { pid : pid; slot : int; txs : int }
  | Buffer_drop of { pid : pid; epoch : int }

type timed = { ts : int; ev : t }

let is_action = function
  | Deliver _ | Drop _ | Duplicate _ | Redirect _ | Swap _ | Crash _ -> true
  | Send _ | Round_enter _ | Quorum _ | Coin_reveal _ | Commit _ | Violation _ | Transport _
  | Slot_commit _ | Buffer_drop _ ->
    false

let equal (a : t) (b : t) = a = b

let equal_timed (a : timed) (b : timed) = a = b

let pp ppf = function
  | Send { eid; src; dst; depth } ->
    Format.fprintf ppf "send eid=%d %d->%d depth=%d" eid src dst depth
  | Deliver { eid; src; dst; depth } ->
    Format.fprintf ppf "deliver eid=%d %d->%d depth=%d" eid src dst depth
  | Drop { eid; src; dst } -> Format.fprintf ppf "drop eid=%d %d->%d" eid src dst
  | Duplicate { eid; copy } -> Format.fprintf ppf "duplicate eid=%d copy=%d" eid copy
  | Redirect { eid; dst } -> Format.fprintf ppf "redirect eid=%d dst=%d" eid dst
  | Swap { eid1; eid2 } -> Format.fprintf ppf "swap eid=%d eid=%d" eid1 eid2
  | Crash { pid } -> Format.fprintf ppf "crash p%d" pid
  | Round_enter { pid; round } -> Format.fprintf ppf "round-enter p%d r%d" pid round
  | Quorum { pid; round; phase } ->
    Format.fprintf ppf "quorum p%d r%d phase=%s" pid round phase
  | Coin_reveal { pid; round; value } ->
    Format.fprintf ppf "coin-reveal p%d r%d %a" pid round Value.pp value
  | Commit { pid; round; value } ->
    Format.fprintf ppf "commit p%d r%d %a" pid round Value.pp value
  | Violation { kind; detail } -> Format.fprintf ppf "VIOLATION %s: %s" kind detail
  | Transport { pid; peer; op; bytes } ->
    Format.fprintf ppf "transport p%d peer=%d %s bytes=%d" pid peer op bytes
  | Slot_commit { pid; slot; txs } ->
    Format.fprintf ppf "slot-commit p%d slot=%d txs=%d" pid slot txs
  | Buffer_drop { pid; epoch } -> Format.fprintf ppf "buffer-drop p%d e%d" pid epoch

let pp_timed ppf { ts; ev } = Format.fprintf ppf "[%d] %a" ts pp ev

(* ---- JSONL encoding ------------------------------------------------ *)

let to_json { ts; ev } =
  let buf = Buffer.create 96 in
  let fint k v = Buffer.add_string buf (Printf.sprintf ",%S:%d" k v) in
  let fstr k v =
    Buffer.add_string buf (Printf.sprintf ",%S:\"" k);
    Bca_util.Json.escape buf v;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%d,\"type\":" ts);
  (match ev with
  | Send { eid; src; dst; depth } ->
    Buffer.add_string buf "\"send\"";
    fint "eid" eid; fint "src" src; fint "dst" dst; fint "depth" depth
  | Deliver { eid; src; dst; depth } ->
    Buffer.add_string buf "\"deliver\"";
    fint "eid" eid; fint "src" src; fint "dst" dst; fint "depth" depth
  | Drop { eid; src; dst } ->
    Buffer.add_string buf "\"drop\"";
    fint "eid" eid; fint "src" src; fint "dst" dst
  | Duplicate { eid; copy } ->
    Buffer.add_string buf "\"duplicate\"";
    fint "eid" eid; fint "copy" copy
  | Redirect { eid; dst } ->
    Buffer.add_string buf "\"redirect\"";
    fint "eid" eid; fint "dst" dst
  | Swap { eid1; eid2 } ->
    Buffer.add_string buf "\"swap\"";
    fint "eid1" eid1; fint "eid2" eid2
  | Crash { pid } ->
    Buffer.add_string buf "\"crash\"";
    fint "pid" pid
  | Round_enter { pid; round } ->
    Buffer.add_string buf "\"round_enter\"";
    fint "pid" pid; fint "round" round
  | Quorum { pid; round; phase } ->
    Buffer.add_string buf "\"quorum\"";
    fint "pid" pid; fint "round" round; fstr "phase" phase
  | Coin_reveal { pid; round; value } ->
    Buffer.add_string buf "\"coin_reveal\"";
    fint "pid" pid; fint "round" round; fint "value" (Value.to_int value)
  | Commit { pid; round; value } ->
    Buffer.add_string buf "\"commit\"";
    fint "pid" pid; fint "round" round; fint "value" (Value.to_int value)
  | Violation { kind; detail } ->
    Buffer.add_string buf "\"violation\"";
    fstr "kind" kind; fstr "detail" detail
  | Transport { pid; peer; op; bytes } ->
    Buffer.add_string buf "\"transport\"";
    fint "pid" pid; fint "peer" peer; fstr "op" op; fint "bytes" bytes
  | Slot_commit { pid; slot; txs } ->
    Buffer.add_string buf "\"slot_commit\"";
    fint "pid" pid; fint "slot" slot; fint "txs" txs
  | Buffer_drop { pid; epoch } ->
    Buffer.add_string buf "\"buffer_drop\"";
    fint "pid" pid; fint "epoch" epoch);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---- JSONL decoding ------------------------------------------------ *)

(* Minimal parser for the flat objects the encoder produces: string keys
   mapped to integer or string values.  Accepts arbitrary whitespace between
   tokens so hand-edited capture files still load. *)

type field = Fint of int | Fstr of string

exception Parse of string

let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then fail "unterminated escape"
           else
             match line.[!pos] with
             | '"' -> Buffer.add_char buf '"'; incr pos
             | '\\' -> Buffer.add_char buf '\\'; incr pos
             | '/' -> Buffer.add_char buf '/'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\012'; incr pos
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub line (!pos + 1) 4 in
               (match int_of_string_opt ("0x" ^ hex) with
               | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
               | Some _ -> fail "non-latin1 \\u escape"
               | None -> fail "bad \\u escape");
               pos := !pos + 5
             | _ -> fail "unknown escape");
          go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if (match peek () with Some '-' -> true | _ -> false) then incr pos;
    while !pos < n && (match line.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done;
    if !pos = start then fail "expected integer";
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad integer"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if (match peek () with Some '}' -> true | _ -> false) then incr pos
  else begin
    let rec members () =
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      skip_ws ();
      let v = match peek () with Some '"' -> Fstr (parse_string ()) | _ -> Fint (parse_int ()) in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' -> incr pos; members ()
      | Some '}' -> incr pos
      | _ -> fail "expected ',' or '}'"
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  List.rev !fields

let of_json line =
  match parse_fields line with
  | exception Parse msg -> Error msg
  | fields ->
    let int k =
      match List.assoc_opt k fields with
      | Some (Fint v) -> v
      | Some (Fstr _) -> raise (Parse (Printf.sprintf "field %S: expected integer" k))
      | None -> raise (Parse (Printf.sprintf "missing field %S" k))
    in
    let str k =
      match List.assoc_opt k fields with
      | Some (Fstr v) -> v
      | Some (Fint _) -> raise (Parse (Printf.sprintf "field %S: expected string" k))
      | None -> raise (Parse (Printf.sprintf "missing field %S" k))
    in
    let value k =
      match int k with
      | 0 -> Value.V0
      | 1 -> Value.V1
      | v -> raise (Parse (Printf.sprintf "field %S: expected 0 or 1, got %d" k v))
    in
    (match
       let ts = int "ts" in
       let ev =
         match str "type" with
         | "send" -> Send { eid = int "eid"; src = int "src"; dst = int "dst"; depth = int "depth" }
         | "deliver" ->
           Deliver { eid = int "eid"; src = int "src"; dst = int "dst"; depth = int "depth" }
         | "drop" -> Drop { eid = int "eid"; src = int "src"; dst = int "dst" }
         | "duplicate" -> Duplicate { eid = int "eid"; copy = int "copy" }
         | "redirect" -> Redirect { eid = int "eid"; dst = int "dst" }
         | "swap" -> Swap { eid1 = int "eid1"; eid2 = int "eid2" }
         | "crash" -> Crash { pid = int "pid" }
         | "round_enter" -> Round_enter { pid = int "pid"; round = int "round" }
         | "quorum" -> Quorum { pid = int "pid"; round = int "round"; phase = str "phase" }
         | "coin_reveal" ->
           Coin_reveal { pid = int "pid"; round = int "round"; value = value "value" }
         | "commit" -> Commit { pid = int "pid"; round = int "round"; value = value "value" }
         | "violation" -> Violation { kind = str "kind"; detail = str "detail" }
         | "transport" ->
           Transport { pid = int "pid"; peer = int "peer"; op = str "op"; bytes = int "bytes" }
         | "slot_commit" -> Slot_commit { pid = int "pid"; slot = int "slot"; txs = int "txs" }
         | "buffer_drop" -> Buffer_drop { pid = int "pid"; epoch = int "epoch" }
         | other -> raise (Parse (Printf.sprintf "unknown event type %S" other))
       in
       { ts; ev }
     with
    | timed -> Ok timed
    | exception Parse msg -> Error msg)
