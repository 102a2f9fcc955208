(* lint: allow-file determinism -- real-process cluster driver; wall-clock deadlines bound socket waits and child reaping and never feed protocol state *)
module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Wire = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Wal = Bca_recovery.Wal
module Rsm = Bca_rsm.Rsm

let parse_stack ?(eps = 0.25) = function
  | "crash-strong" -> Ok Aba.Crash_strong
  | "crash-weak" -> Ok (Aba.Crash_weak eps)
  | "crash-local" -> Ok Aba.Crash_local
  | "byz-strong" -> Ok Aba.Byz_strong
  | "byz-weak" -> Ok (Aba.Byz_weak eps)
  | "byz-tsig" -> Ok Aba.Byz_tsig
  | s ->
    Error
      (Printf.sprintf
         "unknown stack %S (expected crash-strong | crash-weak | crash-local | byz-strong \
          | byz-weak | byz-tsig)"
         s)

let stack_name = function
  | Aba.Crash_strong -> "crash-strong"
  | Aba.Crash_weak _ -> "crash-weak"
  | Aba.Crash_local -> "crash-local"
  | Aba.Byz_strong -> "byz-strong"
  | Aba.Byz_weak _ -> "byz-weak"
  | Aba.Byz_tsig -> "byz-tsig"

let all_stacks ?(eps = 0.25) () =
  [ ("crash-strong", Aba.Crash_strong);
    ("crash-weak", Aba.Crash_weak eps);
    ("crash-local", Aba.Crash_local);
    ("byz-strong", Aba.Byz_strong);
    ("byz-weak", Aba.Byz_weak eps);
    ("byz-tsig", Aba.Byz_tsig) ]

let spec_eps = function
  | Aba.Crash_weak e | Aba.Byz_weak e -> e
  | Aba.Crash_strong | Aba.Crash_local | Aba.Byz_strong | Aba.Byz_tsig -> 0.

type net_stats = { frames : int; bytes : int; words : int }

(* ---- instance derivation -------------------------------------------- *)

(* Weyl sequence over the golden-ratio constant: B well-separated seeds
   from one, [k = 0] already distinct from [seed] itself so a multi run
   never aliases the single run it is compared against. *)
let instance_seed ~seed k =
  Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (k + 1)))

let instance_inputs ~seed ~n k =
  let rng = Rng.create (Int64.add (instance_seed ~seed k) 0x1B17L) in
  Array.init n (fun _ -> Value.of_bool (Rng.bool rng))

let instance_assembly ~seed ~n instances =
  (Array.init instances (instance_seed ~seed), Array.init instances (instance_inputs ~seed ~n))

let rsm_wire = Bca_rsm.Wirefmt.rsm

let rsm_log_hash log = Bca_rsm.Acs.digest (Rsm.encode_batch log)

(* The deterministic per-node workload every process regenerates from the
   spawn parameters: [count] transactions, globally unique by pid and
   index, padded to [tx_bytes]. *)
let rsm_workload ~pid ~count ~tx_bytes =
  List.init count (fun i ->
      let head = Printf.sprintf "p%d.%06d" pid i in
      let pad = tx_bytes - String.length head in
      if pad <= 0 then head else head ^ String.make pad '.')

(* ---- single-process loopback cluster -------------------------------- *)

(* One cap for every loopback driver: a run past it is a liveness bug. *)
let max_deliveries = 4_000_000

(* Bit-identity with [Aba.run ~seed]: the netsim random scheduler draws one
   [Rng.int rng (pool length)] per delivery over a swap-remove pool that
   grows in send order (broadcasts append dst 0, 1, ..., n-1).  The engine
   below is seeded with the same [seed], its pool is populated in the same
   order (initial envelopes replayed by eid, then each delivery's emits in
   emission order), and [Loopback.step] draws the same way - so the frame
   chosen at step [k] is the envelope the simulator would have delivered at
   step [k], and the protocol states evolve identically even though every
   hop here round-trips through the binary codec.

   The engine is resumable one delivery at a time so that [loop_run] can
   interleave B of them round-robin: each engine owns its hub (and hence
   its RNG), executor and scratch buffer, so the per-instance delivery
   sequence is independent of the interleaving. *)
type 'm loop_engine = {
  le_hub : Transport.Loopback.hub;
  le_ends : Transport.t array;
  le_wire : 'm Wire.codec;
  le_exec : 'm Async.t;
  le_parties : Aba.party array;
  le_scratch : Buffer.t;
  mutable le_delivered : int;
  mutable le_words : int;
}

let loop_ship eng ~src ~dst s =
  eng.le_ends.(src).Transport.send ~dst s;
  eng.le_words <- eng.le_words + Wire.words_of_bytes (String.length s)

let loop_emits eng src emits =
  let n = Array.length eng.le_ends in
  List.iter
    (fun emit ->
      match emit with
      | Node.Broadcast m ->
        let s = Wire.encode_buf eng.le_wire ~sender:src ~scratch:eng.le_scratch m in
        for d = 0 to n - 1 do
          loop_ship eng ~src ~dst:d s
        done
      | Node.Unicast (d, m) ->
        loop_ship eng ~src ~dst:d
          (Wire.encode_buf eng.le_wire ~sender:src ~scratch:eng.le_scratch m))
    emits

let loop_make ~seed ~wire ~exec ~parties =
  let n = Async.n exec in
  let hub = Transport.Loopback.create_hub ~seed ~n () in
  let eng =
    { le_hub = hub;
      le_ends = Array.init n (fun me -> Transport.Loopback.endpoint hub ~me);
      le_wire = wire;
      le_exec = exec;
      le_parties = parties;
      le_scratch = Buffer.create 256;
      le_delivered = 0;
      le_words = 0 }
  in
  List.iter
    (fun e ->
      loop_ship eng ~src:e.Async.src ~dst:e.Async.dst
        (Wire.encode_buf wire ~sender:e.Async.src ~scratch:eng.le_scratch e.Async.payload))
    (List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight exec));
  eng

(* One delivery.  [Ok true]: still running; [Ok false]: all terminated. *)
let loop_step eng =
  if Async.all_terminated eng.le_exec then Ok false
  else if eng.le_delivered >= max_deliveries then
    Error "delivery limit reached before termination"
  else
    match Transport.Loopback.step eng.le_hub with
    | None -> Error "network quiesced before termination (liveness bug)"
    | Some (dst, f) -> (
      eng.le_delivered <- eng.le_delivered + 1;
      match Wire.decode_body eng.le_wire f with
      | Error e ->
        Error (Printf.sprintf "codec failure in flight: %s" (Wire.error_to_string e))
      | Ok m ->
        loop_emits eng dst ((Async.node_of eng.le_exec dst).Node.receive ~src:f.Wire.sender m);
        Ok true)

(* The one run loop of every loopback driver: one delivery per live engine
   per sweep, round-robin, until all have terminated.  [tick] runs before
   each sweep (the load generator's deadline and open-loop injection). *)
let loop_run ?(tick = fun () -> Ok ()) engines =
  let b = Array.length engines in
  let running = Array.make b true in
  let live = ref b in
  let err = ref None in
  while !live > 0 && Option.is_none !err do
    (match tick () with Error e -> err := Some e | Ok () -> ());
    Array.iteri
      (fun k eng ->
        if running.(k) && Option.is_none !err then
          match loop_step eng with
          | Error e -> err := Some (if b = 1 then e else Printf.sprintf "instance %d: %s" k e)
          | Ok true -> ()
          | Ok false ->
            running.(k) <- false;
            decr live)
      engines
  done;
  match !err with Some e -> Error e | None -> Ok ()

let loop_stats eng =
  let sum f = Array.fold_left (fun a e -> a + f e.Transport.stats) 0 eng.le_ends in
  { frames = sum (fun s -> s.Transport.frames_out);
    bytes = sum (fun s -> s.Transport.bytes_out);
    words = eng.le_words }

let loop_finish eng =
  let parties = eng.le_parties in
  let missing = ref false in
  let commits =
    Array.map
      (fun (p : Aba.party) ->
        match p.committed () with
        | Some v -> v
        | None ->
          missing := true;
          Value.of_bool false)
      parties
  in
  if !missing then Error "terminated without commit (bug)"
  else begin
    let value = commits.(0) in
    if not (Array.for_all (Value.equal value) commits) then Error "agreement violated (bug)"
    else
      Ok
        ( { Aba.value;
            commits;
            deliveries = eng.le_delivered;
            rounds =
              Array.fold_left (fun acc (p : Aba.party) -> max acc (p.round ())) 0 parties },
          loop_stats eng )
  end

let run_loopback ?(seed = 0xB0CA1L) spec ~cfg ~inputs =
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire exec parties ->
          let eng = loop_make ~seed ~wire ~exec ~parties in
          Result.bind (loop_run [| eng |]) (fun () -> loop_finish eng))
    }
  in
  Result.join (Aba.run_custom ~seed spec ~cfg ~inputs ~driver)

let run_loopback_multi ?(seed = 0xB0CA1L) spec ~cfg ~instances =
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let seeds, inputs = instance_assembly ~seed ~n:cfg.Types.n instances in
    let driver =
      { Aba.drive_many =
          (fun ~wire insts ->
            let engines =
              Array.map
                (fun (inst : _ Aba.instance) ->
                  loop_make ~seed:inst.Aba.i_seed ~wire ~exec:inst.Aba.i_exec
                    ~parties:inst.Aba.i_parties)
                insts
            in
            Result.bind (loop_run engines) (fun () ->
                let rec collect k acc =
                  if k < 0 then Ok (Array.of_list acc)
                  else
                    match loop_finish engines.(k) with
                    | Error e -> Error (Printf.sprintf "instance %d: %s" k e)
                    | Ok r -> collect (k - 1) (r :: acc)
                in
                collect (Array.length engines - 1) []))
      }
    in
    Result.join (Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver)
  end

(* The log over the seeded hub: replica [pid] submits [txs pid] right
   after construction; replica 0 reports commits to [on_commit]. *)
let rsm_loop_make ?on_commit ~seed params ~txs =
  let n = params.Rsm.cfg.Types.n in
  let replicas =
    Array.init n (fun pid ->
        let on_commit = if pid = 0 then on_commit else None in
        let st, init = Rsm.create ?on_commit params ~me:pid in
        List.iter (fun tx -> ignore (Rsm.submit st tx : bool)) (txs pid);
        (st, init))
  in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = replicas.(pid) in
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  (* the log engine has no binary parties to collect - the seeded loop
     engine runs with an empty party array and the RSM states are read *)
  (loop_make ~seed ~wire:rsm_wire ~exec ~parties:[||], Array.map fst replicas)

type rsm_loop_result = {
  rl_logs : Rsm.tx list array;
  rl_deliveries : int;
  rl_stats : net_stats;
}

let run_rsm_loopback ?(seed = 0xB0CA1L) params ~txs =
  let eng, states = rsm_loop_make ~seed params ~txs in
  Result.map
    (fun () ->
      { rl_logs = Array.map Rsm.log states;
        rl_deliveries = eng.le_delivered;
        rl_stats = loop_stats eng })
    (loop_run [| eng |])

(* ---- the per-node report -------------------------------------------- *)

type recovery_info = {
  ri_pid : int;
  ri_records : int;  (** WAL records replayed (Meta excluded) *)
  ri_wal_bytes : int;  (** valid WAL prefix bytes (torn tail excluded) *)
  ri_replay_s : float;  (** wall time spent loading and replaying *)
}

type key =
  | Value of Value.t
  | Values of Value.t array
  | Log of { epochs : int; txs : int; hash : int64 }

type report = {
  rp_pid : int;
  rp_key : key;
  rp_rounds : int array;
  rp_frames : int;
  rp_bytes : int;
  rp_batches : int;
  rp_records : int;
  rp_recovery : recovery_info option;
}

let key_equal a b =
  match (a, b) with
  | Value x, Value y -> Value.equal x y
  | Values xs, Values ys ->
    Array.length xs = Array.length ys && Array.for_all2 Value.equal xs ys
  | Log x, Log y -> x.epochs = y.epochs && x.txs = y.txs && Int64.equal x.hash y.hash
  | (Value _ | Values _ | Log _), _ -> false

let key_values = function Value v -> [| v |] | Values vs -> vs | Log _ -> [||]

let bits vs = String.init (Array.length vs) (fun i -> if Value.to_int vs.(i) = 1 then '1' else '0')

let key_to_string = function
  | Value v -> string_of_int (Value.to_int v)
  | Values vs -> bits vs
  | Log l -> Printf.sprintf "log %016Lx (%d txs in %d epochs)" l.hash l.txs l.epochs

(* One line per node on stdout, space-separated [name=value] fields
   between a [REPORT] tag and an [end] token, so a truncated line never
   parses.  The agreement key is [value=], [values=] or the
   [epochs= txs= hash=] triple; a recovered node appends
   [recovered=<records>:<wal bytes>:<replay s>]. *)
let report_to_line r =
  let key =
    match r.rp_key with
    | Value v -> [ ("value", string_of_int (Value.to_int v)) ]
    | Values vs -> [ ("values", bits vs) ]
    | Log l ->
      [ ("epochs", string_of_int l.epochs); ("txs", string_of_int l.txs);
        ("hash", Printf.sprintf "%016Lx" l.hash) ]
  in
  let rounds =
    match r.rp_key with
    | Log _ -> []
    | Value _ | Values _ ->
      [ ("rounds", String.concat "," (Array.to_list (Array.map string_of_int r.rp_rounds))) ]
  in
  let recovered =
    match r.rp_recovery with
    | None -> []
    | Some ri ->
      [ ("recovered", Printf.sprintf "%d:%d:%.17g" ri.ri_records ri.ri_wal_bytes ri.ri_replay_s) ]
  in
  let fields =
    [ ("pid", string_of_int r.rp_pid); ("frames", string_of_int r.rp_frames);
      ("bytes", string_of_int r.rp_bytes); ("batches", string_of_int r.rp_batches);
      ("records", string_of_int r.rp_records) ]
    @ key @ rounds @ recovered
  in
  String.concat " " (("REPORT" :: List.map (fun (k, v) -> k ^ "=" ^ v) fields) @ [ "end" ])

let report_of_line line =
  let int s = match int_of_string_opt s with Some i -> i | None -> raise Exit in
  let bit = function '0' -> Value.of_bool false | '1' -> Value.of_bool true | _ -> raise Exit in
  let rounds s = Array.of_list (List.map int (String.split_on_char ',' s)) in
  let field tok =
    match String.index_opt tok '=' with
    | Some i -> (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
    | None -> raise Exit
  in
  try
    match String.split_on_char ' ' line with
    | "REPORT" :: tokens -> (
      match List.rev tokens with
      | "end" :: rev_fields -> (
        match List.rev_map field rev_fields with
        | ("pid", pid) :: ("frames", frames) :: ("bytes", bytes) :: ("batches", batches)
          :: ("records", records) :: rest ->
          let key, rounds, rest =
            match rest with
            | ("value", v) :: ("rounds", rs) :: rest when String.length v = 1 ->
              (Value (bit v.[0]), rounds rs, rest)
            | ("values", vs) :: ("rounds", rs) :: rest when String.length vs > 0 ->
              (Values (Array.init (String.length vs) (fun i -> bit vs.[i])), rounds rs, rest)
            | ("epochs", e) :: ("txs", t) :: ("hash", h) :: rest when String.length h = 16 -> (
              match Int64.of_string_opt ("0x" ^ h) with
              | Some hash -> (Log { epochs = int e; txs = int t; hash }, [||], rest)
              | None -> raise Exit)
            | _ -> raise Exit
          in
          if Array.length rounds <> Array.length (key_values key) then raise Exit;
          let pid = int pid in
          let recovery =
            match rest with
            | [] -> None
            | [ ("recovered", r) ] -> (
              match String.split_on_char ':' r with
              | [ records; wal_bytes; replay_s ] -> (
                match float_of_string_opt replay_s with
                | Some ri_replay_s ->
                  Some
                    { ri_pid = pid; ri_records = int records; ri_wal_bytes = int wal_bytes;
                      ri_replay_s }
                | None -> raise Exit)
              | _ -> raise Exit)
            | _ -> raise Exit
          in
          Some
            { rp_pid = pid;
              rp_key = key;
              rp_rounds = rounds;
              rp_frames = int frames;
              rp_bytes = int bytes;
              rp_batches = int batches;
              rp_records = int records;
              rp_recovery = recovery }
        | _ -> None)
        | _ -> None)
    | _ -> None
  with Exit -> None

(* ---- rejoin and departure control plane ----------------------------- *)

(* Out-of-band node-to-node control frames, framed like any wire frame but
   under their own codec id so the stack decoder never sees them.  HELLO is
   what a recovered node broadcasts after replaying its WAL: every receiver
   answers by re-sending its full per-destination frame history to the
   sender (safe: all six stacks are idempotent per sender).  BYE announces
   a decision; a lingering node that has collected n-1 BYEs knows every
   peer decided and may exit early, which is what lets supervised clusters
   run with a linger as long as the whole timeout without paying it. *)
let ctrl_codec_id = 0xC7
let ctrl_hello = 0
let ctrl_bye = 1

let encode_ctrl ~sender op =
  Wire.encode_raw ~codec_id:ctrl_codec_id ~sender (String.make 1 (Char.chr op))

type ctrl = {
  k_net : Transport.t;
  k_byes : bool array;
  mutable k_bye_count : int;
  mutable k_on_hello : int -> unit;  (** answer a restarted peer *)
}

let ctrl_make (net : Transport.t) =
  { k_net = net; k_byes = Array.make net.Transport.n false; k_bye_count = 0; k_on_hello = ignore }

let ctrl_recv k (v : Wire.view) =
  let net = k.k_net in
  let p = v.Wire.v_sender in
  if p < 0 || p >= net.Transport.n || p = net.Transport.me || v.Wire.v_len <> 1 then
    net.Transport.stats.drops <- net.Transport.stats.drops + 1
  else begin
    let op = Char.code v.Wire.v_src.[v.Wire.v_pos] in
    if op = ctrl_hello then begin
      (* a HELLO comes from a restarted process, so our connection to its
         predecessor is stale: reconnect before answering *)
      net.Transport.reset ~dst:p;
      k.k_on_hello p
    end
    else if op = ctrl_bye then begin
      if not k.k_byes.(p) then begin
        k.k_byes.(p) <- true;
        k.k_bye_count <- k.k_bye_count + 1
      end
    end
    else net.Transport.stats.drops <- net.Transport.stats.drops + 1
  end

(* ---- the workload signature ----------------------------------------- *)

(* One node of one workload (ABA x 1, ABA x B, the log) over one
   endpoint.  [start] makes the initial sends; [step] is one scheduling
   slice - drain the local queue, take at most one inbound frame (control
   frames go to [ctrl]), flush - and says whether a message moved. *)
type node = {
  nd_ctrl : ctrl;
  nd_start : unit -> (unit, string) result;
  nd_step : timeout_s:float -> bool;
  nd_terminated : unit -> bool;
  nd_progress : unit -> string;  (** how far an unterminated node got *)
  nd_report : unit -> (report, string) result;
}

(* ---- ABA x 1: one party, with WAL and rejoin ------------------------ *)

let aba_node ~seed ~tracer ~wal_dir ~recover spec ~cfg ~inputs ~ctrl ~wire exec parties =
  let net = ctrl.k_net in
  let n = Async.n exec in
  let me = net.Transport.me in
  let node = Async.node_of exec me in
  let party = parties.(me) in
  let scratch = Buffer.create 256 in
  let trace_on = Bca_obs.Trace.enabled tracer in
  (* self-addressed messages never touch the network: FIFO local
     delivery, a valid asynchronous schedule *)
  let local : (int * _) Queue.t = Queue.create () in
  (* every protocol frame ever handed to the transport, newest first, per
     destination: the rejoin currency.  A HELLO from a restarted peer is
     answered with the full history, and a recovered node pushes its own
     history back out - duplicates are absorbed by per-sender
     idempotence. *)
  let history = Array.make n [] in
  (* WAL plumbing.  [wal = None] while replaying (the records being
     re-applied are already on disk) and when running without --wal-dir;
     otherwise every delivered frame is appended and fsync'd BEFORE it
     touches the protocol state - if a send derived from an unlogged
     delivery reached a peer, a post-crash replay could recompute this
     node's messages under a delivery order the cluster never saw, an
     honest equivocation that breaks agreement. *)
  let wal = ref None in
  let wal_append r = match !wal with Some w -> Wal.append w r | None -> () in
  let wal_flush () = match !wal with Some w -> Wal.flush w | None -> () in
  let replaying = ref false in
  let expected_sent = ref [] in
  let sent_mismatch = ref None in
  let recovered = ref None in
  let ship ~dst s =
    history.(dst) <- s :: history.(dst);
    if !replaying then begin
      (* cross-check regenerated sends against the logged intents; the WAL
         legitimately ends early (crash between the fsync of a delivery
         and the flush of its sends) *)
      match !expected_sent with
      | (edst, eframe) :: rest ->
        expected_sent := rest;
        if edst <> dst || not (String.equal eframe s) then
          if !sent_mismatch = None then sent_mismatch := Some dst
      | [] -> ()
    end
    else begin
      wal_append (Wal.Sent { dst; frame = s });
      net.Transport.send ~dst s
    end
  in
  let do_emits emits =
    List.iter
      (fun emit ->
        match emit with
        | Node.Broadcast m ->
          let s = Wire.encode_buf wire ~sender:me ~scratch m in
          for d = 0 to n - 1 do
            if d = me then Queue.push (me, m) local else ship ~dst:d s
          done
        | Node.Unicast (d, m) ->
          if d = me then Queue.push (me, m) local
          else ship ~dst:d (Wire.encode_buf wire ~sender:me ~scratch m))
      emits
  in
  (* milestones (round entries, the commit) mirrored to the tracer and -
     as Note records - to the WAL.  Redundant for recovery (Meta + Recv
     reconstructs everything); kept for kill triggers, metrics and
     post-mortems. *)
  let last_round = ref 0 in
  let committed_noted = ref false in
  let note ev =
    if trace_on then Bca_obs.Trace.emit tracer ev;
    if not !replaying then
      wal_append (Wal.Note { Bca_obs.Event.ts = net.Transport.stats.frames_in; ev })
  in
  let poll_milestones () =
    let r = party.Aba.round () in
    if r > !last_round then begin
      for round = !last_round + 1 to r do
        note (Bca_obs.Event.Round_enter { pid = me; round })
      done;
      last_round := r
    end;
    if not !committed_noted then
      match party.Aba.committed () with
      | Some value ->
        committed_noted := true;
        let round = match party.Aba.commit_round () with Some cr -> cr | None -> r in
        note (Bca_obs.Event.Commit { pid = me; round; value })
      | None -> ()
  in
  (* our initial sends are the src=me envelopes of the assembled cluster,
     in send (eid) order *)
  let initial_sends () =
    List.iter
      (fun e ->
        if e.Async.src = me then
          if e.Async.dst = me then Queue.push (me, e.Async.payload) local
          else ship ~dst:e.Async.dst (Wire.encode_buf wire ~sender:me ~scratch e.Async.payload))
      (List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight exec))
  in
  let drain_local () =
    while not (Queue.is_empty local) do
      let src, m = Queue.pop local in
      do_emits (node.Node.receive ~src m)
    done;
    poll_milestones ()
  in
  let apply_frame (f : Wire.frame) =
    (match Wire.decode_body wire f with
    | Ok m -> do_emits (node.Node.receive ~src:f.Wire.sender m)
    | Error _ -> net.Transport.stats.drops <- net.Transport.stats.drops + 1);
    poll_milestones ();
    (* the live contract is "local queue empty whenever a network frame is
       applied" - replay mirrors it by draining after every logged
       delivery, so keep the drain here too *)
    drain_local ()
  in
  let resend_history dst =
    let frames = List.rev history.(dst) in
    List.iter (fun s -> net.Transport.send ~dst s) frames;
    if trace_on then
      Bca_obs.Trace.emit tracer
        (Bca_obs.Event.Transport
           { pid = me; peer = dst; op = "resend";
             bytes = List.fold_left (fun a s -> a + String.length s) 0 frames })
  in
  ctrl.k_on_hello <-
    (fun p ->
      resend_history p;
      (* a restarted peer also lost our BYE if we already decided *)
      match party.Aba.committed () with
      | Some _ -> net.Transport.send ~dst:p (encode_ctrl ~sender:me ctrl_bye)
      | None -> ());
  let deliver_frame (f : Wire.frame) =
    (if not (Queue.is_empty local) then drain_local ());
    (match !wal with
    | Some _ ->
      wal_append
        (Wal.Recv (Wire.encode_raw ~codec_id:f.Wire.codec_id ~sender:f.Wire.sender f.Wire.body));
      wal_flush ()
    | None -> ());
    apply_frame f
  in
  (* ---- WAL open / recovery replay ---------------------------------- *)
  let meta =
    { Wal.w_stack = stack_name spec; w_eps = spec_eps spec; w_n = n; w_t = cfg.Types.t;
      w_me = me; w_seed = seed; w_input = inputs.(me) }
  in
  let start () =
    match wal_dir with
    | None ->
      initial_sends ();
      Ok ()
    | Some dir when not recover ->
      wal := Some (Wal.create ~path:(Wal.file_path ~dir ~me) meta);
      initial_sends ();
      Ok ()
    | Some dir -> (
      let path = Wal.file_path ~dir ~me in
      let t0 = Unix.gettimeofday () in
      match Wal.load path with
      | Error e -> Error (Printf.sprintf "node %d: cannot recover: %s" me e)
      | Ok (m, records, torn) ->
        if
          (not (String.equal m.Wal.w_stack meta.Wal.w_stack))
          || m.Wal.w_n <> n || m.Wal.w_t <> cfg.Types.t || m.Wal.w_me <> me
          || (not (Int64.equal m.Wal.w_seed seed))
          || not (Value.equal m.Wal.w_input inputs.(me))
        then
          Error
            (Printf.sprintf "node %d: WAL %s was written by a different configuration" me path)
        else begin
          replaying := true;
          expected_sent :=
            List.filter_map
              (function Wal.Sent { dst; frame } -> Some (dst, frame) | _ -> None)
              records;
          initial_sends ();
          drain_local ();
          List.iter
            (fun r ->
              match r with
              | Wal.Recv fr -> (
                match Wire.decode_frame fr ~pos:0 with
                | Ok (f, _) -> apply_frame f
                | Error _ -> () (* unreachable: Recv holds canonical frames *))
              | Wal.Meta _ | Wal.Sent _ | Wal.Note _ -> ())
            records;
          replaying := false;
          match !sent_mismatch with
          | Some dst ->
            Error
              (Printf.sprintf "node %d: replay diverged from the WAL's logged sends toward node %d"
                 me dst)
          | None ->
            let valid_bytes =
              match torn with Some t -> t.Wal.torn_off | None -> (Unix.stat path).Unix.st_size
            in
            wal := Some (Wal.reopen ~path ~valid_bytes);
            recovered :=
              Some
                { ri_pid = me;
                  ri_records = List.length records;
                  ri_wal_bytes = valid_bytes;
                  ri_replay_s = Unix.gettimeofday () -. t0 };
            if trace_on then
              Bca_obs.Trace.emit tracer
                (Bca_obs.Event.Transport
                   { pid = me; peer = me; op = "recover"; bytes = valid_bytes });
            (* rejoin: ask every peer for its history, and push our
               regenerated history back out - the kernel buffers of the
               dead process are gone on both sides *)
            let hello = encode_ctrl ~sender:me ctrl_hello in
            for d = 0 to n - 1 do
              if d <> me then begin
                net.Transport.send ~dst:d hello;
                resend_history d
              end
            done;
            Ok ()
        end)
  in
  (* the decision's tail is made durable once, before the BYE goes out *)
  let tail_flushed = ref false in
  let step ~timeout_s =
    let moved =
      if not (Queue.is_empty local) then begin
        drain_local ();
        true
      end
      else
        match net.Transport.recv_view ~timeout_s with
        | Some v ->
          if v.Wire.v_codec_id = ctrl_codec_id then ctrl_recv ctrl v
          else deliver_frame (Wire.frame_of_view v);
          true
        | None -> false
    in
    if (not !tail_flushed) && node.Node.terminated () then begin
      tail_flushed := true;
      wal_flush ()
    end;
    moved
  in
  let report () =
    (match !wal with Some w -> Wal.close w | None -> ());
    match party.Aba.committed () with
    | Some v ->
      Ok
        { rp_pid = me;
          rp_key = Value v;
          rp_rounds = [| (match party.Aba.commit_round () with Some r -> r | None -> 0) |];
          rp_frames = net.Transport.stats.frames_out;
          rp_bytes = net.Transport.stats.bytes_out;
          rp_batches = 0;
          rp_records = 0;
          rp_recovery = !recovered }
    | None -> Error (Printf.sprintf "node %d terminated without committing" me)
  in
  { nd_ctrl = ctrl;
    nd_start = start;
    nd_step = step;
    nd_terminated = node.Node.terminated;
    nd_progress = (fun () -> "without terminating");
    nd_report = report }

(* ---- ABA x B: one party of B pipelined instances -------------------- *)

(* One process driving party [me] of B concurrent instances over one
   endpoint: every outbound message is a record in a per-destination batch
   ([Batcher]); every inbound frame is a batch demultiplexed by instance
   id.  A batch is validated in full - instance ids in range, every record
   decoding with the stack codec, inner id matching - before any message is
   delivered, so a corrupt batch is dropped atomically. *)
type 'm mnode = {
  mn_me : int;
  mn_wire : 'm Wire.codec;
  mn_insts : 'm Aba.instance array;
  mn_nodes : 'm Node.t array;  (** party [mn_me] of each instance *)
  mn_ctrl : ctrl;
  mn_net : Transport.t;
  mn_bat : Batcher.t;
  mn_local : (int * int * 'm) Queue.t;  (** (instance, src, message) *)
  mn_done : bool array;
  mutable mn_undecided : int;
}

let mnode_emits mn k emits =
  let wire = mn.mn_wire in
  List.iter
    (fun emit ->
      match emit with
      | Node.Broadcast m ->
        Queue.push (k, mn.mn_me, m) mn.mn_local;
        Batcher.broadcast ~except:mn.mn_me mn.mn_bat ~instance:k ~enc:(fun b -> wire.Wire.enc b m)
      | Node.Unicast (d, m) ->
        if d = mn.mn_me then Queue.push (k, mn.mn_me, m) mn.mn_local
        else Batcher.send mn.mn_bat ~dst:d ~instance:k ~enc:(fun b -> wire.Wire.enc b m))
    emits

let mnode_check_done mn k =
  if (not mn.mn_done.(k)) && mn.mn_nodes.(k).Node.terminated () then begin
    mn.mn_done.(k) <- true;
    mn.mn_undecided <- mn.mn_undecided - 1
  end

let mnode_deliver mn ~instance:k ~src m =
  mnode_emits mn k (mn.mn_nodes.(k).Node.receive ~src m);
  mnode_check_done mn k

let mnode_dispatch mn (v : Wire.view) =
  let drop () = mn.mn_net.Transport.stats.drops <- mn.mn_net.Transport.stats.drops + 1 in
  if v.Wire.v_codec_id <> Batch.codec_id then
    if v.Wire.v_codec_id = ctrl_codec_id then ctrl_recv mn.mn_ctrl v else drop ()
  else begin
    let src = v.Wire.v_sender in
    let batch = ref [] in
    match
      Batch.iter_view v ~record:(fun ~instance g ->
          if instance >= Array.length mn.mn_nodes then
            raise (Wire.Get.Malformed "batch record: instance id out of range");
          let m = mn.mn_wire.Wire.dec g in
          Wire.Get.expect_end g;
          batch := (instance, m) :: !batch)
    with
    | Ok (inner, _count) when inner = mn.mn_wire.Wire.id ->
      List.iter (fun (k, m) -> mnode_deliver mn ~instance:k ~src m) (List.rev !batch)
    | Ok _ | Error _ -> drop ()
  end

let mnode_make ?policy ~wire ~(insts : _ Aba.instance array) ctrl =
  let net = ctrl.k_net in
  let me = net.Transport.me in
  let b = Array.length insts in
  { mn_me = me;
    mn_wire = wire;
    mn_insts = insts;
    mn_nodes = Array.map (fun (inst : _ Aba.instance) -> Async.node_of inst.Aba.i_exec me) insts;
    mn_ctrl = ctrl;
    mn_net = net;
    mn_bat = Batcher.create ?policy ~inner_codec_id:wire.Wire.id net;
    mn_local = Queue.create ();
    mn_done = Array.make b false;
    mn_undecided = b }

(* ship every instance's initial src=me envelopes, in send (eid) order *)
let mnode_start mn =
  let me = mn.mn_me in
  Array.iteri
    (fun k (inst : _ Aba.instance) ->
      List.iter
        (fun e ->
          if e.Async.src = me then
            if e.Async.dst = me then Queue.push (k, me, e.Async.payload) mn.mn_local
            else
              Batcher.send mn.mn_bat ~dst:e.Async.dst ~instance:k
                ~enc:(fun buf -> mn.mn_wire.Wire.enc buf e.Async.payload))
        (List.sort
           (fun a b -> Int.compare a.Async.eid b.Async.eid)
           (Async.inflight inst.Aba.i_exec));
      mnode_check_done mn k)
    mn.mn_insts;
  Batcher.flush mn.mn_bat;
  Ok ()

(* One scheduling slice: drain local self-delivery, take at most one
   inbound batch, drain again, then flush the open batches so nothing
   waits on future traffic.  Returns whether any message moved. *)
let mnode_step mn ~timeout_s =
  let progressed = ref false in
  let drain () =
    while not (Queue.is_empty mn.mn_local) do
      let k, src, m = Queue.pop mn.mn_local in
      mnode_deliver mn ~instance:k ~src m;
      progressed := true
    done
  in
  drain ();
  (match mn.mn_net.Transport.recv_view ~timeout_s with
  | Some v ->
    mnode_dispatch mn v;
    progressed := true;
    drain ()
  | None -> ());
  Batcher.flush mn.mn_bat;
  !progressed

let mnode_report mn =
  let me = mn.mn_me in
  let b = Array.length mn.mn_insts in
  let values = Array.make b (Value.of_bool false) in
  let rounds = Array.make b 0 in
  let missing = ref [] in
  Array.iteri
    (fun k (inst : _ Aba.instance) ->
      let p = inst.Aba.i_parties.(me) in
      match p.Aba.committed () with
      | Some v ->
        values.(k) <- v;
        rounds.(k) <- (match p.Aba.commit_round () with Some r -> r | None -> 0)
      | None -> missing := k :: !missing)
    mn.mn_insts;
  if !missing <> [] then
    Error
      (Printf.sprintf "node %d: instance(s) %s terminated without committing" me
         (String.concat ", " (List.rev_map string_of_int !missing)))
  else begin
    let bst = Batcher.stats mn.mn_bat in
    Ok
      { rp_pid = me;
        rp_key = Values values;
        rp_rounds = rounds;
        rp_frames = mn.mn_net.Transport.stats.frames_out;
        rp_bytes = mn.mn_net.Transport.stats.bytes_out;
        rp_batches = bst.Batcher.batches;
        rp_records = bst.Batcher.records;
        rp_recovery = None }
  end

let mnode_node mn =
  { nd_ctrl = mn.mn_ctrl;
    nd_start = (fun () -> mnode_start mn);
    nd_step = mnode_step mn;
    nd_terminated = (fun () -> mn.mn_undecided = 0);
    nd_progress =
      (fun () ->
        Printf.sprintf "with %d/%d instances undecided" mn.mn_undecided
          (Array.length mn.mn_insts));
    nd_report = (fun () -> mnode_report mn) }

(* ---- the log: one replica ------------------------------------------- *)

(* One replica over a socket endpoint: every RSM output is a broadcast;
   self-copies go through a FIFO local queue (never the network).  A
   positive [r_hop_s] emulates one-way network latency netem-style:
   outbound frames are held in a FIFO and released to the sockets once
   their due time passes.  Self-copies stay immediate - the delay models
   the wire, not local compute. *)
type rnode = {
  r_me : int;
  r_rsm : Rsm.t;
  r_init : Rsm.msg list;
  r_epochs : int;
  r_ctrl : ctrl;
  r_net : Transport.t;
  r_local : Rsm.msg Queue.t;
  r_scratch : Buffer.t;
  r_hop_s : float;
  r_outq : (float * string) Queue.t;  (* due time, encoded frame *)
}

let rnode_send_all rn s =
  for d = 0 to rn.r_net.Transport.n - 1 do
    if d <> rn.r_me then rn.r_net.Transport.send ~dst:d s
  done

(* Release every queued broadcast whose due time has passed; due times
   are non-decreasing, so the FIFO head decides. *)
let rnode_send_due rn =
  if rn.r_hop_s > 0. then begin
    let rec go now =
      match Queue.peek_opt rn.r_outq with
      | Some (due, s) when due <= now ->
        ignore (Queue.pop rn.r_outq);
        rnode_send_all rn s;
        go now
      | _ -> ()
    in
    go (Unix.gettimeofday ())
  end

let rnode_emits rn msgs =
  List.iter
    (fun m ->
      let s = Wire.encode_buf rsm_wire ~sender:rn.r_me ~scratch:rn.r_scratch m in
      Queue.push m rn.r_local;
      if rn.r_hop_s > 0. then Queue.push (Unix.gettimeofday () +. rn.r_hop_s, s) rn.r_outq
      else rnode_send_all rn s)
    msgs

let rnode_drain rn =
  while not (Queue.is_empty rn.r_local) do
    let m = Queue.pop rn.r_local in
    rnode_emits rn (Rsm.handle rn.r_rsm ~from:rn.r_me m)
  done

let rnode_make ?on_commit ?(hop_s = 0.) params ~ctrl =
  let net = ctrl.k_net in
  let me = net.Transport.me in
  if params.Rsm.cfg.Types.n <> net.Transport.n then
    invalid_arg "Cluster.rnode_make: transport size mismatch";
  let rsm, init = Rsm.create ?on_commit params ~me in
  { r_me = me;
    r_rsm = rsm;
    r_init = init;
    r_epochs = params.Rsm.epochs;
    r_ctrl = ctrl;
    r_net = net;
    r_local = Queue.create ();
    r_scratch = Buffer.create 256;
    r_hop_s = hop_s;
    r_outq = Queue.create () }

let rnode_apply rn (v : Wire.view) =
  (match Wire.decode_body_view rsm_wire v with
  | Ok m -> rnode_emits rn (Rsm.handle rn.r_rsm ~from:v.Wire.v_sender m)
  | Error _ -> rn.r_net.Transport.stats.drops <- rn.r_net.Transport.stats.drops + 1);
  rnode_drain rn

(* One scheduling slice: flush due delayed sends, drain local, then apply
   at most one network frame.  [true] if a frame was taken. *)
let rnode_step rn ~timeout_s =
  rnode_send_due rn;
  rnode_drain rn;
  match rn.r_net.Transport.recv_view ~timeout_s with
  | Some v ->
    if v.Wire.v_codec_id = ctrl_codec_id then ctrl_recv rn.r_ctrl v else rnode_apply rn v;
    true
  | None -> false

let rnode_node rn =
  { nd_ctrl = rn.r_ctrl;
    nd_start =
      (fun () ->
        rnode_emits rn rn.r_init;
        Ok ());
    nd_step = rnode_step rn;
    nd_terminated = (fun () -> Rsm.terminated rn.r_rsm);
    nd_progress =
      (fun () ->
        Printf.sprintf "(%d/%d epochs committed)" (Rsm.committed_epochs rn.r_rsm) rn.r_epochs);
    nd_report =
      (fun () ->
        let log = Rsm.log rn.r_rsm in
        Ok
          { rp_pid = rn.r_me;
            rp_key =
              Log
                { epochs = Rsm.committed_epochs rn.r_rsm;
                  txs = List.length log;
                  hash = rsm_log_hash log };
            rp_rounds = [||];
            rp_frames = rn.r_net.Transport.stats.frames_out;
            rp_bytes = rn.r_net.Transport.stats.bytes_out;
            rp_batches = 0;
            rp_records = 0;
            rp_recovery = None }) }

(* ---- the node runtime ------------------------------------------------- *)

type job =
  | Aba_one of { spec : Aba.spec; inputs : Value.t array }
  | Aba_many of { spec : Aba.spec; instances : int; policy : Batcher.policy }
  | Rsm_log of {
      epochs : int;
      window : int;
      batch : Rsm.batch_policy;
      txs_per_node : int;
      tx_bytes : int;
    }

(* The one serve loop: start, step until terminated or the deadline, then
   broadcast BYE and linger - answering peers - until [linger_s] elapses
   or all n-1 peers said BYE; flush, report. *)
let serve_loop ~timeout_s ~linger_s nd =
  let net = nd.nd_ctrl.k_net in
  let me = net.Transport.me in
  match nd.nd_start () with
  | Error _ as e -> e
  | Ok () -> (
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec run () =
      if nd.nd_terminated () then Ok ()
      else if Unix.gettimeofday () >= deadline then
        Error
          (Printf.sprintf "node %d timed out after %.1fs %s" me timeout_s (nd.nd_progress ()))
      else begin
        ignore (nd.nd_step ~timeout_s:0.05 : bool);
        run ()
      end
    in
    match run () with
    | Error _ as e -> e
    | Ok () ->
      let bye = encode_ctrl ~sender:me ctrl_bye in
      for d = 0 to net.Transport.n - 1 do
        if d <> me then net.Transport.send ~dst:d bye
      done;
      let linger_until = Unix.gettimeofday () +. linger_s in
      ignore (net.Transport.flush ~timeout_s:(Float.min linger_s 1.0));
      let rec linger () =
        let now = Unix.gettimeofday () in
        if now < linger_until && nd.nd_ctrl.k_bye_count < net.Transport.n - 1 then begin
          ignore (nd.nd_step ~timeout_s:(Float.min 0.05 (linger_until -. now)) : bool);
          linger ()
        end
      in
      linger ();
      ignore (net.Transport.flush ~timeout_s:0.5);
      nd.nd_report ())

let serve ?(timeout_s = 30.) ?(linger_s = 1.0) ?(tracer = Bca_obs.Trace.null) ?wal_dir
    ?(recover = false) ~seed ~cfg job ~(net : Transport.t) =
  if cfg.Types.n <> net.Transport.n then invalid_arg "Cluster.serve: transport size mismatch";
  let ctrl = ctrl_make net in
  let run nd = serve_loop ~timeout_s ~linger_s nd in
  let result =
    match job with
    | Aba_one { spec; inputs } ->
      let driver =
        { Aba.drive =
            (fun ~coin:_ ~wire exec parties ->
              run
                (aba_node ~seed ~tracer ~wal_dir ~recover spec ~cfg ~inputs ~ctrl ~wire exec
                   parties))
        }
      in
      Result.join (Aba.run_custom ~seed ~tracer spec ~cfg ~inputs ~driver)
    | (Aba_many _ | Rsm_log _) when Option.is_some wal_dir || recover ->
      Error "the WAL and rejoin are single-instance only"
    | Aba_many { instances; _ } when instances < 1 -> Error "instances must be >= 1"
    | Aba_many { spec; instances; policy } ->
      let seeds, inputs = instance_assembly ~seed ~n:cfg.Types.n instances in
      let driver =
        { Aba.drive_many =
            (fun ~wire insts -> run (mnode_node (mnode_make ~policy ~wire ~insts ctrl)))
        }
      in
      Result.join (Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver)
    | Rsm_log { epochs; window; batch; txs_per_node; tx_bytes } ->
      (* forked replicas start at different times, so a late one reads a
         backlog that already reaches its peers' last epochs, and it may
         need a pull answer queued behind that backlog before it can
         commit.  Shedding the far epochs would leave it stuck once its
         peers finish and serve only pulls; a fixed-length log therefore
         buffers every one of its epochs (at most [buffer_cap] messages
         each). *)
      let params =
        Rsm.mk_params ~cfg ~coin_seed:seed ~epochs ~window ~batch ~buffer_slack:epochs ()
      in
      let rn = rnode_make params ~ctrl in
      (* every replica submits the whole cluster workload: commit-time
         dedup makes each transaction commit exactly once, and no
         transaction is censored just because its origin replica's
         proposals kept losing the ACS inclusion race (a late-starting
         process in a short fixed-length log) *)
      for pid = 0 to cfg.Types.n - 1 do
        List.iter
          (fun tx -> ignore (Rsm.submit rn.r_rsm tx : bool))
          (rsm_workload ~pid ~count:txs_per_node ~tx_bytes)
      done;
      run (rnode_node rn)
  in
  net.Transport.close ();
  result

(* ---- agreement over per-node reports ---------------------------------- *)

type cluster_result = {
  c_key : key;
  c_rounds : int array;
  c_stats : net_stats;
  c_batches : int;
  c_records : int;
  c_restarts : int;
  c_recoveries : recovery_info list;
  c_wal_bytes : int;
}

(* Fold one report per pid into the cluster result: every node must hold
   the same agreement key.  Rounds are per pid for ABA x 1 and the
   per-instance maximum for ABA x B. *)
let agree (reports : report array) =
  let r0 = reports.(0) in
  if not (Array.for_all (fun r -> key_equal r.rp_key r0.rp_key) reports) then
    Error
      (Printf.sprintf "DISAGREEMENT: [%s] - protocol bug"
         (String.concat "; "
            (Array.to_list
               (Array.map
                  (fun r -> Printf.sprintf "pid %d -> %s" r.rp_pid (key_to_string r.rp_key))
                  reports))))
  else begin
    let sum f = Array.fold_left (fun a r -> a + f r) 0 reports in
    let bytes = sum (fun r -> r.rp_bytes) in
    Ok
      { c_key = r0.rp_key;
        c_rounds =
          (match r0.rp_key with
          | Value _ -> Array.map (fun r -> r.rp_rounds.(0)) reports
          | Values vs ->
            Array.init (Array.length vs) (fun k ->
                Array.fold_left (fun acc r -> max acc r.rp_rounds.(k)) 0 reports)
          | Log _ -> [||]);
        c_stats = { frames = sum (fun r -> r.rp_frames); bytes; words = Wire.words_of_bytes bytes };
        c_batches = sum (fun r -> r.rp_batches);
        c_records = sum (fun r -> r.rp_records);
        c_restarts = 0;
        c_recoveries = List.filter_map (fun r -> r.rp_recovery) (Array.to_list reports);
        c_wal_bytes = 0 }
  end

(* ---- in-process socket cluster (the bench harness) ------------------ *)

let cluster_counter = ref 0

let rm_rf_dir dir =
  match Sys.readdir dir with
  | entries ->
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) entries;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let fresh_unix_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bca-cluster-%d-%d" (Unix.getpid ()) !cluster_counter)
  in
  Unix.mkdir dir 0o700;
  dir

(* Build all [n] endpoints or none: a failure mid-way (a bound port stolen
   between pick and bind) closes the ones already open before re-raising,
   so a retry starts clean. *)
let make_endpoints ~coalesce ~addrs ~n =
  let ends = ref [] in
  (try
     for me = 0 to n - 1 do
       ends :=
         Transport.Socket.endpoint ~coalesce ~max_queue_bytes:(8 * 1024 * 1024) ~addrs ~me ()
         :: !ends
     done
   with e ->
     List.iter (fun (ep : Transport.t) -> ep.Transport.close ()) !ends;
     raise e);
  Array.of_list (List.rev !ends)

let sum_writes ends =
  Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.writes) 0 ends

(* All [n] nodes of one cluster in this process over real sockets.
   [body ends drive] builds the nodes over the endpoints and hands them to
   [drive], which starts them, steps them round-robin (sleeping [idle_s]
   after a sweep where nothing moved) until all terminate or [timeout_s]
   passes, flushes and closes the endpoints, and folds the reports.
   [tick now] runs before each sweep and says whether it moved anything
   (open-loop injection).  A lost TCP bind race retries the whole attempt
   on fresh ports. *)
let inproc ?(coalesce = true) ~transport ~n ~timeout_s ~idle_s body =
  let attempt () =
    incr cluster_counter;
    let cleanup = ref (fun () -> ()) in
    let addrs =
      match transport with
      | `Unix ->
        let dir = fresh_unix_dir () in
        cleanup := (fun () -> rm_rf_dir dir);
        Transport.Socket.unix_addrs ~dir ~n
      | `Tcp -> Transport.Socket.tcp_addrs ~ports:(Transport.Socket.pick_tcp_ports ~n)
    in
    Fun.protect ~finally:(fun () -> !cleanup ()) @@ fun () ->
    match make_endpoints ~coalesce ~addrs ~n with
    | exception Unix.Unix_error (e, fn, _) ->
      Error (e, Printf.sprintf "%s: %s" fn (Unix.error_message e))
    | ends ->
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          Array.iter (fun (ep : Transport.t) -> ignore (ep.Transport.flush ~timeout_s:0.5)) ends;
          Array.iter (fun (ep : Transport.t) -> ep.Transport.close ()) ends
        end
      in
      let drive ~tick nodes =
        let rec start i =
          if i = Array.length nodes then Ok ()
          else Result.bind (nodes.(i).nd_start ()) (fun () -> start (i + 1))
        in
        let rec loop deadline =
          if Array.for_all (fun nd -> nd.nd_terminated ()) nodes then Ok ()
          else begin
            let now = Unix.gettimeofday () in
            if now >= deadline then
              Error
                (Printf.sprintf "in-process cluster timed out after %.1fs (node 0 %s)" timeout_s
                   (nodes.(0).nd_progress ()))
            else begin
              let progressed = ref (tick now) in
              for i = 0 to Array.length nodes - 1 do
                if nodes.(i).nd_step ~timeout_s:0. then progressed := true
              done;
              if not !progressed then ignore (Unix.select [] [] [] idle_s);
              loop deadline
            end
          end
        in
        let outcome =
          Result.bind (start 0) (fun () -> loop (Unix.gettimeofday () +. timeout_s))
        in
        finish ();
        Result.bind outcome (fun () ->
            let rec reports i acc =
              if i < 0 then agree (Array.of_list acc)
              else
                match nodes.(i).nd_report () with
                | Error _ as e -> e
                | Ok r -> reports (i - 1) (r :: acc)
            in
            reports (Array.length nodes - 1) [])
      in
      Ok (Fun.protect ~finally:finish (fun () -> body ends drive))
  in
  let rec go tries =
    match attempt () with
    | Ok r -> r
    | Error (Unix.EADDRINUSE, _) when transport = `Tcp && tries < 3 -> go (tries + 1)
    | Error (_, msg) -> Error (Printf.sprintf "endpoint setup failed: %s" msg)
  in
  go 1

type inproc_result = {
  ir_values : Value.t array;
  ir_rounds : int array;
  ir_frames : int;
  ir_bytes : int;
  ir_writes : int;
  ir_batches : int;
  ir_records : int;
  ir_max_occupancy : int;
}

let run_inproc_cluster ?(seed = 0xB0CA1L) ?policy ?coalesce ?(timeout_s = 60.) spec ~cfg
    ~instances ~transport =
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let n = cfg.Types.n in
    let seeds, inputs = instance_assembly ~seed ~n instances in
    inproc ?coalesce ~transport ~n ~timeout_s ~idle_s:0.001 @@ fun ends drive ->
    let driver =
      { Aba.drive_many =
          (fun ~wire insts ->
            let mns =
              Array.map (fun net -> mnode_make ?policy ~wire ~insts (ctrl_make net)) ends
            in
            Result.map
              (fun c ->
                { ir_values = key_values c.c_key;
                  ir_rounds = c.c_rounds;
                  ir_frames = c.c_stats.frames;
                  ir_bytes = c.c_stats.bytes;
                  ir_writes = sum_writes ends;
                  ir_batches = c.c_batches;
                  ir_records = c.c_records;
                  ir_max_occupancy =
                    Array.fold_left
                      (fun acc mn -> max acc (Batcher.stats mn.mn_bat).Batcher.max_occupancy)
                      0 mns })
              (drive ~tick:(fun _ -> false) (Array.map mnode_node mns)))
      }
    in
    Result.join (Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver)
  end

(* ---- open-loop load generation ---------------------------------------- *)

type rsm_load = {
  lg_rate : float;  (** target submissions/s cluster-wide; <= 0: preload all *)
  lg_total : int;
  lg_tx_bytes : int;
}

type rsm_load_result = {
  lr_committed : int;
  lr_epochs : int;
  lr_duration_s : float;  (** start to the last commit at the observer *)
  lr_tx_per_s : float;
  lr_p50_ms : float;
  lr_p99_ms : float;
  lr_frames : int;
  lr_bytes : int;
  lr_writes : int;
}

let percentile sorted q =
  let k = Array.length sorted in
  if k = 0 then 0.
  else sorted.(min (k - 1) (int_of_float (Float.of_int (k - 1) *. q +. 0.5)))

let rsm_load_tx ~tx_bytes i =
  let head = Printf.sprintf "t%08d" i in
  let pad = tx_bytes - String.length head in
  if pad <= 0 then head else head ^ String.make pad '.'

(* Measurement shared by the loopback and socket harnesses: transactions
   are injected open-loop (transaction [i] is due at [t0 + i/rate],
   round-robin across replicas); replica 0 is the commit observer, so a
   transaction's latency spans submission at ANY replica to its commit in
   replica 0's log. *)
type rsm_probe = {
  pr_submit : (string, float) Hashtbl.t;
  mutable pr_lats : float list;
  mutable pr_committed : int;
  mutable pr_last_commit : float;
}

let rsm_probe () =
  { pr_submit = Hashtbl.create 256; pr_lats = []; pr_committed = 0; pr_last_commit = 0. }

let rsm_probe_commit pr ~epoch:_ txs =
  let now = Unix.gettimeofday () in
  List.iter
    (fun tx ->
      pr.pr_committed <- pr.pr_committed + 1;
      pr.pr_last_commit <- now;
      match Hashtbl.find_opt pr.pr_submit tx with
      | Some ts ->
        Hashtbl.remove pr.pr_submit tx;
        pr.pr_lats <- (now -. ts) :: pr.pr_lats
      | None -> ())
    txs

(* [inject now]: submit every transaction due by [now]; [true] if any. *)
let rsm_injector pr ~load ~t0 (replicas : Rsm.t array) =
  let injected = ref 0 in
  fun now ->
    let any = ref false in
    while
      !injected < load.lg_total
      && (load.lg_rate <= 0. || now -. t0 >= Float.of_int !injected /. load.lg_rate)
    do
      let i = !injected in
      let tx = rsm_load_tx ~tx_bytes:load.lg_tx_bytes i in
      if Rsm.submit replicas.(i mod Array.length replicas) tx then
        Hashtbl.replace pr.pr_submit tx now;
      incr injected;
      any := true
    done;
    !any

let rsm_probe_result pr ~t0 ~epochs ~(stats : net_stats) ~writes =
  let lats = Array.of_list pr.pr_lats in
  Array.sort Float.compare lats;
  let duration = Float.max 1e-9 (pr.pr_last_commit -. t0) in
  { lr_committed = pr.pr_committed;
    lr_epochs = epochs;
    lr_duration_s = duration;
    lr_tx_per_s = Float.of_int pr.pr_committed /. duration;
    lr_p50_ms = percentile lats 0.5 *. 1000.;
    lr_p99_ms = percentile lats 0.99 *. 1000.;
    lr_frames = stats.frames;
    lr_bytes = stats.bytes;
    lr_writes = writes }

let run_rsm_loadgen_loopback ?(seed = 0xB0CA1L) ?(timeout_s = 60.) params ~load =
  let pr = rsm_probe () in
  let eng, states =
    rsm_loop_make ~on_commit:(rsm_probe_commit pr) ~seed params ~txs:(fun _ -> [])
  in
  let t0 = Unix.gettimeofday () in
  let inject = rsm_injector pr ~load ~t0 states in
  let tick () =
    let now = Unix.gettimeofday () in
    if now >= t0 +. timeout_s then Error "loopback loadgen timed out"
    else begin
      ignore (inject now : bool);
      Ok ()
    end
  in
  Result.map
    (fun () ->
      rsm_probe_result pr ~t0 ~epochs:(Rsm.committed_epochs states.(0)) ~stats:(loop_stats eng)
        ~writes:0)
    (loop_run ~tick [| eng |])

let run_rsm_loadgen ?(timeout_s = 60.) ?(hop_s = 0.) params ~load ~transport =
  let n = params.Rsm.cfg.Types.n in
  inproc ~transport ~n ~timeout_s ~idle_s:0.0005 @@ fun ends drive ->
  let pr = rsm_probe () in
  let rns =
    Array.map
      (fun (net : Transport.t) ->
        let on_commit = if net.Transport.me = 0 then Some (rsm_probe_commit pr) else None in
        rnode_make ?on_commit ~hop_s params ~ctrl:(ctrl_make net))
      ends
  in
  let t0 = Unix.gettimeofday () in
  let tick = rsm_injector pr ~load ~t0 (Array.map (fun rn -> rn.r_rsm) rns) in
  Result.map
    (fun c ->
      let epochs = match c.c_key with Log l -> l.epochs | Value _ | Values _ -> 0 in
      rsm_probe_result pr ~t0 ~epochs ~stats:c.c_stats ~writes:(sum_writes ends))
    (drive ~tick (Array.map rnode_node rns))

(* ---- the launcher ------------------------------------------------------ *)

(* Exit code [bca_node] uses for a bind failure (EADDRINUSE): the launcher
   retries the whole spawn with fresh ports when it sees it. *)
let addr_in_use_exit = 3

let wal_dir_bytes ~wal_dir ~n =
  let total = ref 0 in
  for me = 0 to n - 1 do
    match Unix.stat (Wal.file_path ~dir:wal_dir ~me) with
    | st -> total := !total + st.Unix.st_size
    | exception Unix.Unix_error _ -> ()
  done;
  !total

let make_cluster_addr_arg ?pick_ports ~attempt ~n ~transport ~cleanup () =
  match transport with
  | `Unix ->
    let dir = fresh_unix_dir () in
    cleanup := (fun () -> rm_rf_dir dir);
    ( "unix",
      String.concat ","
        (List.init n (fun i -> Filename.concat dir (Printf.sprintf "node-%d.sock" i))) )
  | `Tcp ->
    let ports =
      match pick_ports with
      | Some f -> f ~attempt
      | None -> Transport.Socket.pick_tcp_ports ~n
    in
    ( "tcp",
      String.concat ","
        (Array.to_list (Array.map (fun p -> Printf.sprintf "127.0.0.1:%d" p) ports)) )

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let job_args = function
  | Aba_one { spec; inputs } ->
    [ "--stack"; stack_name spec; "--eps"; Printf.sprintf "%g" (spec_eps spec); "--inputs";
      bits inputs ]
  | Aba_many { spec; instances; policy } ->
    [ "--stack"; stack_name spec; "--eps"; Printf.sprintf "%g" (spec_eps spec);
      "--instances"; string_of_int instances;
      "--batch-records"; string_of_int policy.Batcher.max_records;
      "--batch-bytes"; string_of_int policy.Batcher.max_bytes ]
  | Rsm_log { epochs; window; batch; txs_per_node; tx_bytes } ->
    [ "--rsm";
      "--rsm-epochs"; string_of_int epochs;
      "--rsm-window"; string_of_int window;
      "--rsm-batch-txs"; string_of_int batch.Rsm.max_txs;
      "--rsm-batch-bytes"; string_of_int batch.Rsm.max_bytes;
      "--rsm-txs"; string_of_int txs_per_node;
      "--rsm-tx-bytes"; string_of_int tx_bytes ]

let job_check ~n ~wal_dir ~kill_at = function
  | Aba_one { inputs; _ } when Array.length inputs <> n -> Error "inputs must have length n"
  | Aba_many { instances; _ } when instances < 1 -> Error "instances must be >= 1"
  | (Aba_many _ | Rsm_log _) when Option.is_some wal_dir ->
    Error "supervision (a WAL dir) requires the single-instance workload"
  | _ when Option.is_some kill_at && Option.is_none wal_dir ->
    Error "kill_at requires supervision (a WAL dir)"
  | Aba_one _ | Aba_many _ | Rsm_log _ -> Ok ()

let key_fits job key =
  match (job, key) with
  | Aba_one _, Value _ | Rsm_log _, Log _ -> true
  | Aba_many { instances; _ }, Values vs -> Array.length vs = instances
  | (Aba_one _ | Aba_many _ | Rsm_log _), _ -> false

let spawn_child ~node_exe argv =
  let r, w = Unix.pipe () in
  Unix.set_close_on_exec r;
  let pid = Unix.create_process node_exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, r)

let last_report buf =
  List.fold_left
    (fun acc line -> match report_of_line line with Some r -> Some r | None -> acc)
    None
    (String.split_on_char '\n' (Buffer.contents buf))

let restart_backoff_base_s = 0.25
let restart_backoff_cap_s = 2.0

(* Fork the n nodes and gather their reports; the gather loop is the
   supervisor.  Without a WAL dir a node that exits without a report has
   failed.  With one, such a node - killed by a signal, exiting non-zero,
   or exiting zero without a report - is restarted with capped-exponential
   backoff (with [--recover] once its WAL exists), at most [max_restarts]
   times; every node runs with a linger as long as the whole run (BYEs end
   it early).  [kill_at = (victim, trigger)] arms one node with
   [--kill-at]; the recovering argv strips it so replay does not re-fire.
   A node losing the TCP bind race ends the attempt at once. *)
let gather ~timeout_s ~max_restarts ~wal_dir ~kill_at ~transport ~n ~argv ~node_exe =
  let supervised = Option.is_some wal_dir in
  let extra me ~recover =
    match wal_dir with
    | None -> []
    | Some dir ->
      [ "--wal-dir"; dir; "--linger"; Printf.sprintf "%g" timeout_s ]
      @ (if recover then [ "--recover" ] else [])
      @
      match kill_at with
      | Some (victim, trigger) when victim = me && not recover -> [ "--kill-at"; trigger ]
      | _ -> []
  in
  let launch me ~recover =
    `Running (spawn_child ~node_exe (Array.of_list (argv me @ extra me ~recover)))
  in
  let bufs = Array.init n (fun _ -> Buffer.create 256) in
  let restarts = Array.make n 0 in
  let clash = ref false in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let state = Array.init n (fun me -> launch me ~recover:false) in
  let reap me pid fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    match status with
    | Unix.WEXITED 0 when Option.is_some (last_report bufs.(me)) -> state.(me) <- `Done
    | Unix.WEXITED c when c = addr_in_use_exit && transport = `Tcp ->
      clash := true;
      state.(me) <- `Failed (Printf.sprintf "node %d lost the port race" me)
    | _ when supervised && restarts.(me) < max_restarts ->
      let delay =
        Float.min restart_backoff_cap_s
          (restart_backoff_base_s *. (2. ** float_of_int restarts.(me)))
      in
      restarts.(me) <- restarts.(me) + 1;
      state.(me) <- `Restart_at (Unix.gettimeofday () +. delay)
    | status ->
      state.(me) <-
        `Failed
          (Printf.sprintf "node %d exited without a report (%s%s)" me (status_string status)
             (if supervised then Printf.sprintf " after %d restart(s)" restarts.(me) else ""))
  in
  let settled = function `Done | `Failed _ -> true | `Running _ | `Restart_at _ -> false in
  while
    (not (Array.for_all settled state)) && (not !clash) && Unix.gettimeofday () < deadline
  do
    Array.iteri
      (fun me st ->
        match st with
        | `Restart_at t when Unix.gettimeofday () >= t ->
          let recover =
            match wal_dir with
            | Some dir -> Sys.file_exists (Wal.file_path ~dir ~me)
            | None -> false
          in
          state.(me) <- launch me ~recover
        | _ -> ())
      state;
    let fds =
      Array.to_list state |> List.filter_map (function `Running (_, fd) -> Some fd | _ -> None)
    in
    match Unix.select fds [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
      Array.iteri
        (fun me st ->
          match st with
          | `Running (pid, fd) when List.memq fd readable -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> reap me pid fd
            | k -> Buffer.add_subbytes bufs.(me) chunk 0 k
            | exception Unix.Unix_error (EINTR, _, _) -> ())
          | _ -> ())
        state
  done;
  (* deadline, clash or settled: kill and reap any survivor *)
  let timed_out = ref [] in
  Array.iteri
    (fun me st ->
      match st with
      | `Running (pid, fd) ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        timed_out := me :: !timed_out
      | `Restart_at _ -> timed_out := me :: !timed_out
      | `Done | `Failed _ -> ())
    state;
  let failures =
    Array.to_list state |> List.filter_map (function `Failed m -> Some m | _ -> None)
  in
  if !clash then `Clash
  else if !timed_out <> [] then
    `Failed
      (Printf.sprintf "cluster timed out after %.1fs (node(s) %s still running were killed)"
         timeout_s
         (String.concat ", " (List.rev_map string_of_int !timed_out)))
  else if failures <> [] then `Failed (String.concat "; " failures)
  else begin
    let rec collect me acc =
      if me < 0 then `Reports (Array.of_list acc, Array.fold_left ( + ) 0 restarts)
      else
        match last_report bufs.(me) with
        | Some r -> collect (me - 1) (r :: acc)
        | None -> `Failed "internal: report extraction mismatch"
    in
    collect (n - 1) []
  end

let spawn ?(timeout_s = 60.) ?pick_ports ?wal_dir ?(max_restarts = 4) ?kill_at ~node_exe ~cfg
    ~seed ~transport job =
  let n = cfg.Types.n in
  match job_check ~n ~wal_dir ~kill_at job with
  | Error _ as e -> e
  | Ok () ->
    let rec attempt tries =
      incr cluster_counter;
      let cleanup = ref (fun () -> ()) in
      let kind, addrs_arg =
        make_cluster_addr_arg ?pick_ports ~attempt:tries ~n ~transport ~cleanup ()
      in
      let argv me =
        [ node_exe;
          "--n"; string_of_int n;
          "--t"; string_of_int cfg.Types.t;
          "--me"; string_of_int me;
          "--seed"; Int64.to_string seed;
          "--transport"; kind;
          "--addrs"; addrs_arg;
          "--timeout"; Printf.sprintf "%g" (Float.max 1. (timeout_s -. 5.)) ]
        @ job_args job
      in
      (* [Fun.protect]: a spawn failure (node_exe missing, fork error) must
         not leak the rendezvous directory *)
      match
        Fun.protect
          ~finally:(fun () -> !cleanup ())
          (fun () ->
            gather ~timeout_s ~max_restarts ~wal_dir ~kill_at ~transport ~n ~argv ~node_exe)
      with
      | `Clash when tries < 3 -> attempt (tries + 1)
      | `Clash -> Error "every attempt lost the TCP port race"
      | `Failed e -> Error e
      | `Reports (reports, restarts) ->
        Result.bind (agree reports) (fun c ->
            if not (key_fits job c.c_key) then Error "nodes reported a different workload"
            else
              Ok
                { c with
                  c_restarts = restarts;
                  c_wal_bytes =
                    (match wal_dir with Some wal_dir -> wal_dir_bytes ~wal_dir ~n | None -> 0) })
    in
    attempt 1
