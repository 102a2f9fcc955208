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

(* ---- single-process loopback cluster -------------------------------- *)

let max_deliveries = 1_000_000

(* Bit-identity with [Aba.run ~seed]: the netsim random scheduler draws one
   [Rng.int rng (pool length)] per delivery over a swap-remove pool that
   grows in send order (broadcasts append dst 0, 1, ..., n-1).  The engine
   below is seeded with the same [seed], its pool is populated in the same
   order (initial envelopes replayed by eid, then each delivery's emits in
   emission order), and [Loopback.step] draws the same way - so the frame
   chosen at step [k] is the envelope the simulator would have delivered at
   step [k], and the protocol states evolve identically even though every
   hop here round-trips through the binary codec.

   The engine is resumable one delivery at a time so that
   [run_loopback_multi] can interleave B of them round-robin: each engine
   owns its hub (and hence its RNG), executor and scratch buffer, so the
   per-instance delivery sequence is independent of the interleaving. *)
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
    else begin
      let frames = Array.fold_left (fun a e -> a + e.Transport.stats.frames_out) 0 eng.le_ends in
      let bytes = Array.fold_left (fun a e -> a + e.Transport.stats.bytes_out) 0 eng.le_ends in
      Ok
        ( { Aba.value;
            commits;
            deliveries = eng.le_delivered;
            rounds =
              Array.fold_left (fun acc (p : Aba.party) -> max acc (p.round ())) 0 parties },
          { frames; bytes; words = eng.le_words } )
    end
  end

let run_loopback ?(seed = 0xB0CA1L) spec ~cfg ~inputs =
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire exec parties ->
          let eng = loop_make ~seed ~wire ~exec ~parties in
          let rec go () =
            if eng.le_delivered >= max_deliveries then
              Error "delivery limit reached before termination"
            else
              match loop_step eng with
              | Error _ as e -> e
              | Ok true -> go ()
              | Ok false -> loop_finish eng
          in
          go ())
    }
  in
  match Aba.run_custom ~seed spec ~cfg ~inputs ~driver with
  | Error _ as e -> e
  | Ok r -> r

let run_loopback_multi ?(seed = 0xB0CA1L) spec ~cfg ~instances =
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let n = cfg.Types.n in
    let seeds = Array.init instances (instance_seed ~seed) in
    let inputs = Array.init instances (instance_inputs ~seed ~n) in
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
            let b = Array.length engines in
            let running = Array.make b true in
            let live = ref b in
            let err = ref None in
            (* round-robin, one delivery per live engine per sweep *)
            while !live > 0 && !err = None do
              Array.iteri
                (fun k eng ->
                  if running.(k) && !err = None then
                    if eng.le_delivered >= max_deliveries then
                      err :=
                        Some
                          (Printf.sprintf "instance %d: delivery limit reached before termination" k)
                    else
                      match loop_step eng with
                      | Error e -> err := Some (Printf.sprintf "instance %d: %s" k e)
                      | Ok true -> ()
                      | Ok false ->
                        running.(k) <- false;
                        decr live)
                engines
            done;
            match !err with
            | Some e -> Error e
            | None ->
              let rec collect k acc =
                if k < 0 then Ok (Array.of_list acc)
                else
                  match loop_finish engines.(k) with
                  | Error e -> Error (Printf.sprintf "instance %d: %s" k e)
                  | Ok r -> collect (k - 1) (r :: acc)
              in
              collect (b - 1) [])
      }
    in
    match Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver with
    | Error _ as e -> e
    | Ok r -> r
  end

(* ---- rejoin control plane ------------------------------------------- *)

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

let decode_ctrl (f : Wire.frame) =
  if String.length f.Wire.body <> 1 then None
  else begin
    let op = Char.code f.Wire.body.[0] in
    if op = ctrl_hello then Some `Hello else if op = ctrl_bye then Some `Bye else None
  end

let spec_eps = function
  | Aba.Crash_weak e | Aba.Byz_weak e -> e
  | Aba.Crash_strong | Aba.Crash_local | Aba.Byz_strong | Aba.Byz_tsig -> 0.

type recovery_info = {
  ri_pid : int;
  ri_records : int;  (** WAL records replayed (Meta excluded) *)
  ri_wal_bytes : int;  (** valid WAL prefix bytes (torn tail excluded) *)
  ri_replay_s : float;  (** wall time spent loading and replaying *)
}

let print_recovered ri =
  Printf.printf "RECOVERED pid=%d records=%d wal_bytes=%d replay_s=%.6f\n%!" ri.ri_pid
    ri.ri_records ri.ri_wal_bytes ri.ri_replay_s

let parse_recovered line =
  match
    Scanf.sscanf line "RECOVERED pid=%d records=%d wal_bytes=%d replay_s=%f"
      (fun pid records wal_bytes replay_s -> (pid, records, wal_bytes, replay_s))
  with
  | pid, records, wal_bytes, replay_s ->
    Some { ri_pid = pid; ri_records = records; ri_wal_bytes = wal_bytes; ri_replay_s = replay_s }
  | (exception Scanf.Scan_failure _) | (exception End_of_file) | (exception Failure _) -> None

(* ---- one party over a socket transport ------------------------------ *)

type decision = {
  d_pid : int;
  d_value : Value.t;
  d_round : int;
  d_frames : int;
  d_bytes : int;
}

let print_decision d =
  Printf.printf "DECIDED pid=%d value=%d round=%d frames=%d bytes=%d\n%!" d.d_pid
    (Value.to_int d.d_value) d.d_round d.d_frames d.d_bytes

let parse_decision line =
  match
    Scanf.sscanf line "DECIDED pid=%d value=%d round=%d frames=%d bytes=%d"
      (fun pid v round frames bytes -> (pid, v, round, frames, bytes))
  with
  | pid, v, round, frames, bytes when v = 0 || v = 1 ->
    Some
      { d_pid = pid;
        d_value = Value.of_bool (v = 1);
        d_round = round;
        d_frames = frames;
        d_bytes = bytes }
  | _ | (exception Scanf.Scan_failure _) | (exception End_of_file) | (exception Failure _) ->
    None

let run_node ?(seed = 0xB0CA1L) ?(timeout_s = 30.) ?(linger_s = 1.0)
    ?(tracer = Bca_obs.Trace.null) ?wal_dir ?(recover = false)
    ?(on_recover = fun (_ : recovery_info) -> ()) spec ~cfg ~inputs ~(net : Transport.t) =
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire exec parties ->
          let n = Async.n exec in
          let me = net.Transport.me in
          if n <> net.Transport.n then invalid_arg "Cluster.run_node: transport size mismatch";
          let node = Async.node_of exec me in
          let party = parties.(me) in
          let scratch = Buffer.create 256 in
          let trace_on = Bca_obs.Trace.enabled tracer in
          (* self-addressed messages never touch the network: FIFO local
             delivery, a valid asynchronous schedule *)
          let local : (int * _) Queue.t = Queue.create () in
          (* every protocol frame ever handed to the transport, newest
             first, per destination: the rejoin currency.  A HELLO from a
             restarted peer is answered with the full history, and a
             recovered node pushes its own history back out - duplicates
             are absorbed by per-sender idempotence. *)
          let history = Array.make n [] in
          let byes = Array.make n false in
          let bye_count = ref 0 in
          (* WAL plumbing.  [wal = None] while replaying (the records being
             re-applied are already on disk) and when running without
             --wal-dir; otherwise every delivered frame is appended and
             fsync'd BEFORE it touches the protocol state - if a send
             derived from an unlogged delivery reached a peer, a post-crash
             replay could recompute this node's messages under a delivery
             order the cluster never saw, an honest equivocation that
             breaks agreement. *)
          let wal = ref None in
          let wal_append r = match !wal with Some w -> Wal.append w r | None -> () in
          let wal_flush () = match !wal with Some w -> Wal.flush w | None -> () in
          let replaying = ref false in
          let expected_sent = ref [] in
          let sent_mismatch = ref None in
          let ship ~dst s =
            history.(dst) <- s :: history.(dst);
            if !replaying then begin
              (* cross-check regenerated sends against the logged intents;
                 the WAL legitimately ends early (crash between the fsync
                 of a delivery and the flush of its sends) *)
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
          (* milestones (round entries, the commit) mirrored to the tracer
             and - as Note records - to the WAL.  Redundant for recovery
             (Meta + Recv reconstructs everything); kept for kill triggers,
             metrics and post-mortems. *)
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
          (* our initial sends are the src=me envelopes of the assembled
             cluster, in send (eid) order *)
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
            (* the live contract is "local queue empty whenever a network
               frame is applied" - replay mirrors it by draining after
               every logged delivery, so keep the drain here too *)
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
          let handle_ctrl (f : Wire.frame) =
            let p = f.Wire.sender in
            if p < 0 || p >= n || p = me then
              net.Transport.stats.drops <- net.Transport.stats.drops + 1
            else
              match decode_ctrl f with
              | Some `Hello ->
                resend_history p;
                (* a restarted peer also lost our BYE if we already decided *)
                (match party.Aba.committed () with
                | Some _ -> net.Transport.send ~dst:p (encode_ctrl ~sender:me ctrl_bye)
                | None -> ())
              | Some `Bye ->
                if not byes.(p) then begin
                  byes.(p) <- true;
                  incr bye_count
                end
              | None -> net.Transport.stats.drops <- net.Transport.stats.drops + 1
          in
          let deliver_frame (f : Wire.frame) =
            if f.Wire.codec_id = ctrl_codec_id then handle_ctrl f
            else begin
              (if not (Queue.is_empty local) then drain_local ());
              (match !wal with
              | Some _ ->
                wal_append
                  (Wal.Recv (Wire.encode_raw ~codec_id:f.Wire.codec_id ~sender:f.Wire.sender f.Wire.body));
                wal_flush ()
              | None -> ());
              apply_frame f
            end
          in
          (* ---- WAL open / recovery replay ---------------------------- *)
          let meta =
            { Wal.w_stack = stack_name spec; w_eps = spec_eps spec; w_n = n;
              w_t = cfg.Types.t; w_me = me; w_seed = seed; w_input = inputs.(me) }
          in
          let boot =
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
                    (Printf.sprintf "node %d: WAL %s was written by a different configuration"
                       me path)
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
                      (Printf.sprintf
                         "node %d: replay diverged from the WAL's logged sends toward node %d"
                         me dst)
                  | None ->
                    let valid_bytes =
                      match torn with
                      | Some t -> t.Wal.torn_off
                      | None -> (Unix.stat path).Unix.st_size
                    in
                    wal := Some (Wal.reopen ~path ~valid_bytes);
                    on_recover
                      { ri_pid = me;
                        ri_records = List.length records;
                        ri_wal_bytes = valid_bytes;
                        ri_replay_s = Unix.gettimeofday () -. t0 };
                    if trace_on then
                      Bca_obs.Trace.emit tracer
                        (Bca_obs.Event.Transport
                           { pid = me; peer = me; op = "recover"; bytes = valid_bytes });
                    (* rejoin: ask every peer for its history, and push our
                       regenerated history back out - the kernel buffers of
                       the dead process are gone on both sides *)
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
          match boot with
          | Error _ as e -> e
          | Ok () ->
            let deadline = Unix.gettimeofday () +. timeout_s in
            let rec loop () =
              if node.Node.terminated () then Ok ()
              else if not (Queue.is_empty local) then begin
                drain_local ();
                loop ()
              end
              else
                match net.Transport.recv ~timeout_s:0.05 with
                | Some f ->
                  deliver_frame f;
                  loop ()
                | None ->
                  if Unix.gettimeofday () >= deadline then
                    Error
                      (Printf.sprintf "node %d timed out after %.1fs without terminating" me
                         timeout_s)
                  else loop ()
            in
            (match loop () with
            | Error _ as e -> e
            | Ok () ->
              (* decision reached: make the tail durable, tell the peers,
                 then stay responsive while laggards finish - a BYE from
                 all n-1 peers ends the linger early *)
              poll_milestones ();
              wal_flush ();
              let bye = encode_ctrl ~sender:me ctrl_bye in
              for d = 0 to n - 1 do
                if d <> me then net.Transport.send ~dst:d bye
              done;
              let linger_until = Unix.gettimeofday () +. linger_s in
              ignore (net.Transport.flush ~timeout_s:(Float.min linger_s 1.0));
              let rec linger () =
                drain_local ();
                let now = Unix.gettimeofday () in
                if now < linger_until && !bye_count < n - 1 then begin
                  (match net.Transport.recv ~timeout_s:(Float.min 0.05 (linger_until -. now)) with
                  | Some f -> deliver_frame f
                  | None -> ());
                  linger ()
                end
              in
              linger ();
              ignore (net.Transport.flush ~timeout_s:0.5);
              (match !wal with Some w -> Wal.close w | None -> ());
              (match party.Aba.committed () with
              | Some v ->
                Ok
                  { d_pid = me;
                    d_value = v;
                    d_round = (match party.Aba.commit_round () with Some r -> r | None -> 0);
                    d_frames = net.Transport.stats.frames_out;
                    d_bytes = net.Transport.stats.bytes_out }
              | None -> Error (Printf.sprintf "node %d terminated without committing" me))))
    }
  in
  match Aba.run_custom ~seed ~tracer spec ~cfg ~inputs ~driver with
  | Error _ as e -> e
  | Ok r -> r

(* ---- pipelined multi-instance node ---------------------------------- *)

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
  if v.Wire.v_codec_id <> Batch.codec_id then drop ()
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

let mnode_make ?tracer ?policy ~wire ~(insts : _ Aba.instance array) ~(net : Transport.t) () =
  let me = net.Transport.me in
  let b = Array.length insts in
  let mn =
    { mn_me = me;
      mn_wire = wire;
      mn_insts = insts;
      mn_nodes = Array.map (fun (inst : _ Aba.instance) -> Async.node_of inst.Aba.i_exec me) insts;
      mn_net = net;
      mn_bat = Batcher.create ?tracer ?policy ~inner_codec_id:wire.Wire.id net;
      mn_local = Queue.create ();
      mn_done = Array.make b false;
      mn_undecided = b }
  in
  (* ship every instance's initial src=me envelopes, in send (eid) order *)
  Array.iteri
    (fun k (inst : _ Aba.instance) ->
      List.iter
        (fun e ->
          if e.Async.src = me then
            if e.Async.dst = me then Queue.push (k, me, e.Async.payload) mn.mn_local
            else
              Batcher.send mn.mn_bat ~dst:e.Async.dst ~instance:k
                ~enc:(fun buf -> wire.Wire.enc buf e.Async.payload))
        (List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight inst.Aba.i_exec));
      mnode_check_done mn k)
    insts;
  mn

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

type multi_decision = {
  md_pid : int;
  md_values : Value.t array;
  md_rounds : int array;
  md_frames : int;
  md_bytes : int;
  md_batches : int;
  md_records : int;
}

let print_multi_decision d =
  Printf.printf "MDECIDED pid=%d values=%s rounds=%s frames=%d bytes=%d batches=%d records=%d\n%!"
    d.md_pid
    (String.init (Array.length d.md_values) (fun i ->
         if Value.to_int d.md_values.(i) = 1 then '1' else '0'))
    (String.concat "," (Array.to_list (Array.map string_of_int d.md_rounds)))
    d.md_frames d.md_bytes d.md_batches d.md_records

let parse_multi_decision line =
  match
    Scanf.sscanf line "MDECIDED pid=%d values=%s rounds=%s frames=%d bytes=%d batches=%d records=%d"
      (fun pid values rounds frames bytes batches records ->
        (pid, values, rounds, frames, bytes, batches, records))
  with
  | exception Scanf.Scan_failure _ -> None
  | exception End_of_file -> None
  | exception Failure _ -> None
  | pid, values, rounds, frames, bytes, batches, records ->
    if values = "" || not (String.for_all (fun c -> c = '0' || c = '1') values) then None
    else begin
      let round_list = String.split_on_char ',' rounds |> List.map int_of_string_opt in
      if List.exists (fun r -> r = None) round_list then None
      else begin
        let md_rounds = Array.of_list (List.filter_map Fun.id round_list) in
        if Array.length md_rounds <> String.length values then None
        else
          Some
            { md_pid = pid;
              md_values =
                Array.init (String.length values) (fun i -> Value.of_bool (values.[i] = '1'));
              md_rounds;
              md_frames = frames;
              md_bytes = bytes;
              md_batches = batches;
              md_records = records }
      end
    end

let mnode_collect mn =
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
      { md_pid = me;
        md_values = values;
        md_rounds = rounds;
        md_frames = mn.mn_net.Transport.stats.frames_out;
        md_bytes = mn.mn_net.Transport.stats.bytes_out;
        md_batches = bst.Batcher.batches;
        md_records = bst.Batcher.records }
  end

let run_node_multi ?(seed = 0xB0CA1L) ?(timeout_s = 30.) ?(linger_s = 1.0)
    ?(tracer = Bca_obs.Trace.null) ?policy spec ~cfg ~instances ~(net : Transport.t) =
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let n = cfg.Types.n in
    let seeds = Array.init instances (instance_seed ~seed) in
    let inputs = Array.init instances (instance_inputs ~seed ~n) in
    let driver =
      { Aba.drive_many =
          (fun ~wire insts ->
            if n <> net.Transport.n then
              invalid_arg "Cluster.run_node_multi: transport size mismatch";
            let mn = mnode_make ~tracer ?policy ~wire ~insts ~net () in
            let deadline = Unix.gettimeofday () +. timeout_s in
            let rec loop () =
              if mn.mn_undecided = 0 then Ok ()
              else if Unix.gettimeofday () >= deadline then
                Error
                  (Printf.sprintf "node %d timed out after %.1fs with %d/%d instances undecided"
                     mn.mn_me timeout_s mn.mn_undecided instances)
              else begin
                ignore (mnode_step mn ~timeout_s:0.02);
                loop ()
              end
            in
            match loop () with
            | Error _ as e -> e
            | Ok () ->
              let linger_until = Unix.gettimeofday () +. linger_s in
              ignore (net.Transport.flush ~timeout_s:linger_s);
              let rec linger () =
                let now = Unix.gettimeofday () in
                if now < linger_until then begin
                  ignore (mnode_step mn ~timeout_s:(Float.min 0.05 (linger_until -. now)));
                  linger ()
                end
              in
              linger ();
              ignore (net.Transport.flush ~timeout_s:0.5);
              mnode_collect mn)
      }
    in
    match Aba.run_custom_many ~tracer spec ~cfg ~seeds ~inputs ~driver with
    | Error _ as e -> e
    | Ok r -> r
  end

(* ---- in-process socket cluster (the bench harness) ------------------ *)

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
let make_endpoints ~coalesce ?sndbuf_bytes ?rcvbuf_bytes ~addrs ~n () =
  let ends = ref [] in
  (try
     for me = 0 to n - 1 do
       ends :=
         Transport.Socket.endpoint ~coalesce ?sndbuf_bytes ?rcvbuf_bytes
           ~max_queue_bytes:(8 * 1024 * 1024) ~addrs ~me ()
         :: !ends
     done
   with e ->
     List.iter (fun (ep : Transport.t) -> ep.Transport.close ()) !ends;
     raise e);
  Array.of_list (List.rev !ends)

let run_inproc_cluster ?(seed = 0xB0CA1L) ?policy ?(coalesce = true) ?sndbuf_bytes ?rcvbuf_bytes
    ?(timeout_s = 60.) spec ~cfg ~instances ~transport =
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let n = cfg.Types.n in
    let seeds = Array.init instances (instance_seed ~seed) in
    let inputs = Array.init instances (instance_inputs ~seed ~n) in
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
      let driver =
        { Aba.drive_many =
            (fun ~wire insts ->
              let ends =
                try Ok (make_endpoints ~coalesce ?sndbuf_bytes ?rcvbuf_bytes ~addrs ~n ())
                with Unix.Unix_error (e, fn, _) ->
                  Error (`Bind (e, Printf.sprintf "%s: %s" fn (Unix.error_message e)))
              in
              match ends with
              | Error _ as e -> e
              | Ok ends ->
                let mns = Array.map (fun net -> mnode_make ?policy ~wire ~insts ~net ()) ends in
                let finish () =
                  Array.iter (fun (ep : Transport.t) -> ignore (ep.Transport.flush ~timeout_s:0.5)) ends;
                  Array.iter (fun (ep : Transport.t) -> ep.Transport.close ()) ends
                in
                let deadline = Unix.gettimeofday () +. timeout_s in
                let rec loop () =
                  if Array.for_all (fun mn -> mn.mn_undecided = 0) mns then Ok ()
                  else if Unix.gettimeofday () >= deadline then
                    Error
                      (`Run
                        (Printf.sprintf "in-process cluster timed out after %.1fs (%d/%d undecided at node 0)"
                           timeout_s mns.(0).mn_undecided instances))
                  else begin
                    let progressed = ref false in
                    Array.iter
                      (fun mn -> if mnode_step mn ~timeout_s:0. then progressed := true)
                      mns;
                    if not !progressed then ignore (Unix.select [] [] [] 0.001);
                    loop ()
                  end
                in
                let outcome = loop () in
                finish ();
                (match outcome with
                | Error _ as e -> e
                | Ok () ->
                  (* every mnode decided every instance: check cluster-wide
                     agreement per instance across the shared parties *)
                  let values = Array.make instances (Value.of_bool false) in
                  let rounds = Array.make instances 0 in
                  let bad = ref None in
                  Array.iteri
                    (fun k (inst : _ Aba.instance) ->
                      let commits =
                        Array.map
                          (fun (p : Aba.party) ->
                            match p.Aba.committed () with Some v -> Some v | None -> None)
                          inst.Aba.i_parties
                      in
                      if Array.exists (fun c -> c = None) commits then begin
                        if !bad = None then
                          bad := Some (Printf.sprintf "instance %d: party terminated without commit" k)
                      end
                      else begin
                        let cs = Array.to_list commits |> List.filter_map Fun.id in
                        match cs with
                        | [] -> if !bad = None then bad := Some "empty cluster"
                        | v0 :: rest ->
                          if not (List.for_all (Value.equal v0) rest) then begin
                            if !bad = None then
                              bad := Some (Printf.sprintf "instance %d: DISAGREEMENT - protocol bug" k)
                          end
                          else begin
                            values.(k) <- v0;
                            rounds.(k) <-
                              Array.fold_left
                                (fun acc (p : Aba.party) ->
                                  max acc (match p.Aba.commit_round () with Some r -> r | None -> 0))
                                0 inst.Aba.i_parties
                          end
                      end)
                    insts;
                  (match !bad with
                  | Some e -> Error (`Run e)
                  | None ->
                    let frames =
                      Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.frames_out) 0 ends
                    in
                    let bytes =
                      Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.bytes_out) 0 ends
                    in
                    let writes =
                      Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.writes) 0 ends
                    in
                    let batches = ref 0 and records = ref 0 and occ = ref 0 in
                    Array.iter
                      (fun mn ->
                        let st = Batcher.stats mn.mn_bat in
                        batches := !batches + st.Batcher.batches;
                        records := !records + st.Batcher.records;
                        occ := max !occ st.Batcher.max_occupancy)
                      mns;
                    Ok
                      { ir_values = values;
                        ir_rounds = rounds;
                        ir_frames = frames;
                        ir_bytes = bytes;
                        ir_writes = writes;
                        ir_batches = !batches;
                        ir_records = !records;
                        ir_max_occupancy = !occ })))
        }
      in
      Fun.protect
        ~finally:(fun () -> !cleanup ())
        (fun () -> Aba.run_custom_many spec ~cfg ~seeds ~inputs ~driver)
    in
    (* a picked TCP port can be stolen between pick and bind: retry the
       whole attempt (fresh ports, fresh assembly) a couple of times *)
    let rec go tries =
      match attempt () with
      | Ok (Ok r) -> Ok r
      | Ok (Error (`Run e)) -> Error e
      | Ok (Error (`Bind (Unix.EADDRINUSE, _))) when transport = `Tcp && tries < 3 ->
        go (tries + 1)
      | Ok (Error (`Bind (_, msg))) -> Error (Printf.sprintf "endpoint setup failed: %s" msg)
      | Error e -> Error e
    in
    go 1
  end

(* ---- multi-process launcher ----------------------------------------- *)

type cluster_result = {
  c_value : Value.t;
  c_rounds : int array;
  c_stats : net_stats;
}

let inputs_to_string inputs =
  String.init (Array.length inputs) (fun i -> if Value.to_int inputs.(i) = 1 then '1' else '0')

(* Exit code [bca_node] uses for a bind failure (EADDRINUSE): the launcher
   retries the whole spawn with fresh ports when it sees it. *)
let addr_in_use_exit = 3

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

(* Fork one child per party, gather each stdout to EOF or the deadline,
   then reap (SIGKILL after a grace period).  Returns per-child output and
   exit status, and whether the deadline cut the gather short. *)
let spawn_and_gather ~timeout_s ~spawn ~n =
  let children = Array.init n spawn in
  let bufs = Array.init n (fun _ -> Buffer.create 256) in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let open_fds = ref (Array.to_list (Array.mapi (fun i (_, r) -> (i, r)) children)) in
  let chunk = Bytes.create 4096 in
  while !open_fds <> [] && Unix.gettimeofday () < deadline do
    let fds = List.map snd !open_fds in
    match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun (i, fd) ->
          if List.memq fd readable then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              Unix.close fd;
              open_fds := List.filter (fun (j, _) -> j <> i) !open_fds
            | k -> Buffer.add_subbytes bufs.(i) chunk 0 k
            | exception Unix.Unix_error (EINTR, _, _) -> ())
        !open_fds
  done;
  List.iter (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ()) !open_fds;
  let timed_out = !open_fds <> [] in
  (* reap: give exited children a moment, then kill survivors *)
  let reap_deadline = Unix.gettimeofday () +. if timed_out then 0. else 5. in
  let statuses =
    Array.map
      (fun (pid, _) ->
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if Unix.gettimeofday () >= reap_deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              let _, st = Unix.waitpid [] pid in
              st
            end
            else begin
              ignore (Unix.select [] [] [] 0.05);
              wait ()
            end
          | _, st -> st
        in
        wait ())
      children
  in
  (bufs, statuses, timed_out)

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let node_argv ~node_exe ~stack ~eps ~cfg ~seed ~kind ~addrs_arg ~timeout_s ~extra me =
  Array.of_list
    ([ node_exe;
       "--stack"; stack;
       "--eps"; Printf.sprintf "%g" eps;
       "--n"; string_of_int cfg.Types.n;
       "--t"; string_of_int cfg.Types.t;
       "--me"; string_of_int me;
       "--seed"; Int64.to_string seed;
       "--transport"; kind;
       "--addrs"; addrs_arg;
       "--timeout"; Printf.sprintf "%g" (Float.max 1. (timeout_s -. 5.)) ]
    @ extra)

let spawn_child ~node_exe argv =
  let r, w = Unix.pipe () in
  Unix.set_close_on_exec r;
  let pid = Unix.create_process node_exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, r)

let port_clash ~transport ~timed_out statuses =
  (not timed_out) && transport = `Tcp
  && Array.exists (function Unix.WEXITED c -> c = addr_in_use_exit | _ -> false) statuses

(* One spawn attempt: fresh rendezvous, fork, gather, cleanup.  The
   continuation turns raw child output into the caller's result; a TCP
   port clash (a child lost the bind race and exited [addr_in_use_exit])
   retries the whole attempt with fresh ports. *)
let with_spawn_attempts ?pick_ports ~timeout_s ~transport ~n ~argv_for k =
  let rec go tries =
    incr cluster_counter;
    let cleanup = ref (fun () -> ()) in
    let kind, addrs_arg = make_cluster_addr_arg ?pick_ports ~attempt:tries ~n ~transport ~cleanup () in
    (* [Fun.protect]: a spawn failure (node_exe missing, fork error) must
       not leak the rendezvous directory *)
    let bufs, statuses, timed_out =
      Fun.protect
        ~finally:(fun () -> !cleanup ())
        (fun () ->
          spawn_and_gather ~timeout_s ~spawn:(fun me -> argv_for ~kind ~addrs_arg me) ~n)
    in
    if port_clash ~transport ~timed_out statuses && tries < 3 then go (tries + 1)
    else k ~bufs ~statuses ~timed_out
  in
  go 1

let spawn_cluster ?(timeout_s = 60.) ?pick_ports ~node_exe ~stack ~eps ~cfg ~seed ~inputs
    ~transport () =
  let n = cfg.Types.n in
  if Array.length inputs <> n then Error "inputs must have length n"
  else
    with_spawn_attempts ?pick_ports ~timeout_s ~transport ~n
      ~argv_for:(fun ~kind ~addrs_arg me ->
        spawn_child ~node_exe
          (node_argv ~node_exe ~stack ~eps ~cfg ~seed ~kind ~addrs_arg ~timeout_s
             ~extra:[ "--inputs"; inputs_to_string inputs ]
             me))
      (fun ~bufs ~statuses ~timed_out ->
        let decisions =
          Array.map
            (fun buf ->
              String.split_on_char '\n' (Buffer.contents buf) |> List.find_map parse_decision)
            bufs
        in
        let missing =
          Array.to_list decisions
          |> List.mapi (fun i d -> (i, d))
          |> List.filter_map (fun (i, d) -> if d = None then Some i else None)
        in
        if timed_out then
          Error
            (Printf.sprintf "cluster timed out after %.1fs (nodes still running killed)" timeout_s)
        else if missing <> [] then
          Error
            (Printf.sprintf "node(s) %s exited without deciding (statuses: %s)"
               (String.concat ", " (List.map string_of_int missing))
               (String.concat ", " (Array.to_list (Array.map status_string statuses))))
        else begin
          let ds = Array.of_list (List.filter_map Fun.id (Array.to_list decisions)) in
          if Array.length ds <> n then Error "internal: decision extraction mismatch"
          else begin
            let value = ds.(0).d_value in
            if not (Array.for_all (fun d -> Value.equal d.d_value value) ds) then
              Error
                (Printf.sprintf "DISAGREEMENT: decisions [%s] - protocol bug"
                   (String.concat "; "
                      (Array.to_list
                         (Array.map
                            (fun d ->
                              Printf.sprintf "pid %d -> %d" d.d_pid (Value.to_int d.d_value))
                            ds))))
            else begin
              let frames = Array.fold_left (fun a d -> a + d.d_frames) 0 ds in
              let bytes = Array.fold_left (fun a d -> a + d.d_bytes) 0 ds in
              Ok
                { c_value = value;
                  c_rounds = Array.map (fun d -> d.d_round) ds;
                  c_stats = { frames; bytes; words = Wire.words_of_bytes bytes } }
            end
          end
        end)

type multi_cluster_result = {
  mc_values : Value.t array;
  mc_rounds : int array;
  mc_stats : net_stats;
  mc_batches : int;
  mc_records : int;
}

let spawn_cluster_multi ?(timeout_s = 60.) ?policy ~node_exe ~stack ~eps ~cfg ~seed ~instances
    ~transport () =
  let n = cfg.Types.n in
  if instances < 1 then Error "instances must be >= 1"
  else begin
    let pol = match policy with Some p -> p | None -> Batcher.policy () in
    with_spawn_attempts ~timeout_s ~transport ~n
      ~argv_for:(fun ~kind ~addrs_arg me ->
        spawn_child ~node_exe
          (node_argv ~node_exe ~stack ~eps ~cfg ~seed ~kind ~addrs_arg ~timeout_s
             ~extra:
               [ "--instances"; string_of_int instances;
                 "--batch-records"; string_of_int pol.Batcher.max_records;
                 "--batch-bytes"; string_of_int pol.Batcher.max_bytes ]
             me))
      (fun ~bufs ~statuses ~timed_out ->
        let decisions =
          Array.map
            (fun buf ->
              String.split_on_char '\n' (Buffer.contents buf)
              |> List.find_map parse_multi_decision)
            bufs
        in
        let missing =
          Array.to_list decisions
          |> List.mapi (fun i d -> (i, d))
          |> List.filter_map (fun (i, d) -> if d = None then Some i else None)
        in
        if timed_out then
          Error
            (Printf.sprintf "cluster timed out after %.1fs (nodes still running killed)" timeout_s)
        else if missing <> [] then
          Error
            (Printf.sprintf "node(s) %s exited without deciding (statuses: %s)"
               (String.concat ", " (List.map string_of_int missing))
               (String.concat ", " (Array.to_list (Array.map status_string statuses))))
        else begin
          let ds = Array.of_list (List.filter_map Fun.id (Array.to_list decisions)) in
          if Array.length ds <> n then Error "internal: decision extraction mismatch"
          else if Array.exists (fun d -> Array.length d.md_values <> instances) ds then
            Error "node reported a wrong instance count"
          else begin
            let disagreements = ref [] in
            for k = instances - 1 downto 0 do
              let v = ds.(0).md_values.(k) in
              if not (Array.for_all (fun d -> Value.equal d.md_values.(k) v) ds) then
                disagreements := k :: !disagreements
            done;
            if !disagreements <> [] then
              Error
                (Printf.sprintf "DISAGREEMENT on instance(s) %s - protocol bug"
                   (String.concat ", " (List.map string_of_int !disagreements)))
            else begin
              let frames = Array.fold_left (fun a d -> a + d.md_frames) 0 ds in
              let bytes = Array.fold_left (fun a d -> a + d.md_bytes) 0 ds in
              Ok
                { mc_values = Array.map (fun v -> v) ds.(0).md_values;
                  mc_rounds =
                    Array.init instances (fun k ->
                        Array.fold_left (fun acc d -> max acc d.md_rounds.(k)) 0 ds);
                  mc_stats = { frames; bytes; words = Wire.words_of_bytes bytes };
                  mc_batches = Array.fold_left (fun a d -> a + d.md_batches) 0 ds;
                  mc_records = Array.fold_left (fun a d -> a + d.md_records) 0 ds }
            end
          end
        end)
  end

(* ---- supervised launcher (crash-recovery) --------------------------- *)

type supervised_result = {
  s_result : cluster_result;
  s_restarts : int;  (** total node restarts the supervisor performed *)
  s_recoveries : recovery_info list;  (** one per successful WAL replay *)
  s_wal_bytes : int;  (** bytes across all WAL files when the run ended *)
}

let wal_dir_bytes ~wal_dir ~n =
  let total = ref 0 in
  for me = 0 to n - 1 do
    match Unix.stat (Wal.file_path ~dir:wal_dir ~me) with
    | st -> total := !total + st.Unix.st_size
    | exception Unix.Unix_error _ -> ()
  done;
  !total

(* Fork the n nodes with durable WALs and a linger as long as the whole
   run (BYEs end it early), then babysit them: a node that dies - killed
   by a signal, or exiting non-zero, or exiting zero without a DECIDED
   line - is restarted with capped-exponential backoff, recovering from
   its WAL when one exists.  [kill_at = (victim, trigger)] arms one node
   with [--kill-at] (it SIGKILLs itself at the trigger); the restart argv
   strips the flag so the recovered process does not re-fire during
   replay. *)
let spawn_cluster_supervised ?(timeout_s = 60.) ?(max_restarts = 4) ?(backoff_base_s = 0.25)
    ?(backoff_cap_s = 2.0) ?kill_at ~node_exe ~stack ~eps ~cfg ~seed ~inputs ~wal_dir
    ~transport () =
  let n = cfg.Types.n in
  if Array.length inputs <> n then Error "inputs must have length n"
  else begin
    incr cluster_counter;
    let cleanup = ref (fun () -> ()) in
    let kind, addrs_arg = make_cluster_addr_arg ~attempt:1 ~n ~transport ~cleanup () in
    let argv me ~recover =
      let extra =
        [ "--inputs"; inputs_to_string inputs;
          "--wal-dir"; wal_dir;
          "--linger"; Printf.sprintf "%g" timeout_s ]
        @ (if recover then [ "--recover" ] else [])
        @ (match kill_at with
          | Some (victim, trigger) when victim = me && not recover ->
            [ "--kill-at"; trigger ]
          | _ -> [])
      in
      node_argv ~node_exe ~stack ~eps ~cfg ~seed ~kind ~addrs_arg ~timeout_s ~extra me
    in
    Fun.protect ~finally:(fun () -> !cleanup ()) @@ fun () ->
    let bufs = Array.init n (fun _ -> Buffer.create 256) in
    let restarts = Array.make n 0 in
    let total_restarts = ref 0 in
    let state = Array.make n `Init in
    let chunk = Bytes.create 4096 in
    let deadline = Unix.gettimeofday () +. timeout_s in
    for me = 0 to n - 1 do
      state.(me) <- `Running (spawn_child ~node_exe (argv me ~recover:false))
    done;
    let node_decided me =
      String.split_on_char '\n' (Buffer.contents bufs.(me))
      |> List.exists (fun l -> parse_decision l <> None)
    in
    let settled = function `Done | `Failed _ -> true | `Init | `Running _ | `Restart_at _ -> false in
    let reap me pid fd =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 when node_decided me -> state.(me) <- `Done
      | status ->
        if restarts.(me) >= max_restarts then
          state.(me) <-
            `Failed
              (Printf.sprintf "node %d %s after %d restart(s)" me (status_string status)
                 restarts.(me))
        else begin
          let delay =
            Float.min backoff_cap_s (backoff_base_s *. (2. ** float_of_int restarts.(me)))
          in
          restarts.(me) <- restarts.(me) + 1;
          state.(me) <- `Restart_at (Unix.gettimeofday () +. delay)
        end
    in
    while (not (Array.for_all settled state)) && Unix.gettimeofday () < deadline do
      Array.iteri
        (fun me st ->
          match st with
          | `Restart_at t when Unix.gettimeofday () >= t ->
            let recover = Sys.file_exists (Wal.file_path ~dir:wal_dir ~me) in
            incr total_restarts;
            state.(me) <- `Running (spawn_child ~node_exe (argv me ~recover))
          | _ -> ())
        state;
      let fds =
        Array.to_list state
        |> List.filter_map (function `Running (_, fd) -> Some fd | _ -> None)
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
    (* deadline or settled: kill and reap any survivor *)
    Array.iteri
      (fun me st ->
        match st with
        | `Running (pid, fd) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let _, _ = Unix.waitpid [] pid in
          state.(me) <-
            `Failed (Printf.sprintf "node %d still running at the deadline (killed)" me)
        | `Init | `Restart_at _ ->
          state.(me) <- `Failed (Printf.sprintf "node %d never finished" me)
        | `Done | `Failed _ -> ())
      state;
    let failures =
      Array.to_list state |> List.filter_map (function `Failed m -> Some m | _ -> None)
    in
    if failures <> [] then Error (String.concat "; " failures)
    else begin
      let lines me = String.split_on_char '\n' (Buffer.contents bufs.(me)) in
      let decisions = Array.init n (fun me -> List.find_map parse_decision (lines me)) in
      let recoveries =
        List.concat (List.init n (fun me -> List.filter_map parse_recovered (lines me)))
      in
      let ds = Array.of_list (List.filter_map Fun.id (Array.to_list decisions)) in
      if Array.length ds <> n then Error "internal: decision extraction mismatch"
      else begin
        let value = ds.(0).d_value in
        if not (Array.for_all (fun d -> Value.equal d.d_value value) ds) then
          Error
            (Printf.sprintf "DISAGREEMENT: decisions [%s] - protocol bug"
               (String.concat "; "
                  (Array.to_list
                     (Array.map
                        (fun d -> Printf.sprintf "pid %d -> %d" d.d_pid (Value.to_int d.d_value))
                        ds))))
        else begin
          let frames = Array.fold_left (fun a d -> a + d.d_frames) 0 ds in
          let bytes = Array.fold_left (fun a d -> a + d.d_bytes) 0 ds in
          Ok
            { s_result =
                { c_value = value;
                  c_rounds = Array.map (fun d -> d.d_round) ds;
                  c_stats = { frames; bytes; words = Wire.words_of_bytes bytes } };
              s_restarts = !total_restarts;
              s_recoveries = recoveries;
              s_wal_bytes = wal_dir_bytes ~wal_dir ~n }
        end
      end
    end
  end

(* ---- replicated log (RSM) over real transports ----------------------- *)

(* The pipelined atomic-broadcast log ([Bca_rsm.Rsm]) over the same three
   message-movement regimes the binary stacks get: the seeded loopback hub
   (bit-identical to the netsim run - the executor-correctness oracle), an
   in-process socket cluster (the loadgen/bench harness), and forked
   [bca_node --rsm] processes.  Every hop round-trips through the codec-7
   wire format; replicas compare whole logs by FNV-1a digest. *)

module Rsm = Bca_rsm.Rsm

let rsm_wire = Bca_rsm.Wirefmt.rsm

let rsm_log_hash log = Bca_rsm.Mvba.digest (Rsm.encode_batch log)

(* The deterministic per-node workload every process regenerates from the
   spawn parameters: [count] transactions, globally unique by pid and
   index, padded to [tx_bytes]. *)
let rsm_workload ~pid ~count ~tx_bytes =
  List.init count (fun i ->
      let head = Printf.sprintf "p%d.%06d" pid i in
      let pad = tx_bytes - String.length head in
      if pad <= 0 then head else head ^ String.make pad '.')

type rsm_loop_result = {
  rl_logs : Rsm.tx list array;
  rl_deliveries : int;
  rl_stats : net_stats;
}

let run_rsm_loopback ?(seed = 0xB0CA1L) params ~txs =
  let n = params.Rsm.cfg.Types.n in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = Rsm.create params ~me:pid in
        states.(pid) <- Some st;
        List.iter (fun tx -> ignore (Rsm.submit st tx : bool)) (txs pid);
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  (* the log engine has no binary parties to collect - reuse the seeded
     loop engine with an empty party array and read the RSM states *)
  let eng = loop_make ~seed ~wire:rsm_wire ~exec ~parties:[||] in
  let rec go () =
    if eng.le_delivered >= max_deliveries then
      Error "delivery limit reached before termination"
    else
      match loop_step eng with
      | Error _ as e -> e
      | Ok true -> go ()
      | Ok false -> Ok ()
  in
  match go () with
  | Error _ as e -> e
  | Ok () ->
    let logs = Array.map (function Some st -> Rsm.log st | None -> []) states in
    let frames = Array.fold_left (fun a e -> a + e.Transport.stats.frames_out) 0 eng.le_ends in
    let bytes = Array.fold_left (fun a e -> a + e.Transport.stats.bytes_out) 0 eng.le_ends in
    Ok
      { rl_logs = logs;
        rl_deliveries = eng.le_delivered;
        rl_stats = { frames; bytes; words = eng.le_words } }

(* One replica over a socket endpoint: every RSM output is a broadcast;
   self-copies go through a FIFO local queue (never the network).  A
   positive [r_hop_s] emulates one-way network latency netem-style:
   outbound frames are held in a FIFO and released to the sockets once
   their due time passes.  Self-copies stay immediate - the delay models
   the wire, not local compute. *)
type rnode = {
  r_me : int;
  r_rsm : Rsm.t;
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
      if rn.r_hop_s > 0. then
        Queue.push (Unix.gettimeofday () +. rn.r_hop_s, s) rn.r_outq
      else rnode_send_all rn s)
    msgs

let rnode_drain rn =
  while not (Queue.is_empty rn.r_local) do
    let m = Queue.pop rn.r_local in
    rnode_emits rn (Rsm.handle rn.r_rsm ~from:rn.r_me m)
  done

let rnode_make ?on_commit ?(hop_s = 0.) params ~me ~(net : Transport.t) () =
  let rsm, init = Rsm.create ?on_commit params ~me in
  let rn =
    { r_me = me;
      r_rsm = rsm;
      r_net = net;
      r_local = Queue.create ();
      r_scratch = Buffer.create 256;
      r_hop_s = hop_s;
      r_outq = Queue.create () }
  in
  rnode_emits rn init;
  rn

let rnode_apply rn (v : Wire.view) =
  (match Wire.decode_body_view rsm_wire v with
  | Ok m -> rnode_emits rn (Rsm.handle rn.r_rsm ~from:v.Wire.v_sender m)
  | Error _ -> rn.r_net.Transport.stats.drops <- rn.r_net.Transport.stats.drops + 1);
  rnode_drain rn

(* One scheduling slice: flush due delayed sends, drain local, then apply
   at most one network frame.  [true] if anything was applied. *)
let rnode_step rn ~timeout_s =
  rnode_send_due rn;
  rnode_drain rn;
  match rn.r_net.Transport.recv_view ~timeout_s with
  | Some v ->
    rnode_apply rn v;
    true
  | None -> false

type rsm_decision = {
  r_pid : int;
  r_epochs : int;  (** epochs committed *)
  r_txs : int;  (** transactions in the committed log *)
  r_hash : int64;  (** FNV-1a digest of the whole log *)
  r_frames : int;
  r_bytes : int;
}

let print_rsm_decision d =
  Printf.printf "RSMLOG pid=%d epochs=%d txs=%d hash=%016Lx frames=%d bytes=%d\n%!" d.r_pid
    d.r_epochs d.r_txs d.r_hash d.r_frames d.r_bytes

let parse_rsm_decision line =
  match
    Scanf.sscanf line "RSMLOG pid=%d epochs=%d txs=%d hash=%Lx frames=%d bytes=%d"
      (fun pid epochs txs hash frames bytes -> (pid, epochs, txs, hash, frames, bytes))
  with
  | pid, epochs, txs, hash, frames, bytes ->
    Some
      { r_pid = pid; r_epochs = epochs; r_txs = txs; r_hash = hash; r_frames = frames;
        r_bytes = bytes }
  | exception Scanf.Scan_failure _ -> None
  | exception End_of_file -> None
  | exception Failure _ -> None

let run_rsm_node ?(timeout_s = 30.) ?(linger_s = 1.0) params ~txs ~(net : Transport.t) =
  let me = net.Transport.me in
  let n = net.Transport.n in
  if params.Rsm.cfg.Types.n <> n then invalid_arg "Cluster.run_rsm_node: transport size mismatch";
  let rn = rnode_make params ~me ~net () in
  List.iter (fun tx -> ignore (Rsm.submit rn.r_rsm tx : bool)) txs;
  let byes = Array.make n false in
  let bye_count = ref 0 in
  let deliver (v : Wire.view) =
    if v.Wire.v_codec_id = ctrl_codec_id then begin
      let p = v.Wire.v_sender in
      if p < 0 || p >= n || p = me then net.Transport.stats.drops <- net.Transport.stats.drops + 1
      else
        match decode_ctrl (Wire.frame_of_view v) with
        | Some `Bye ->
          if not byes.(p) then begin
            byes.(p) <- true;
            incr bye_count
          end
        (* no WAL / rejoin for log replicas (yet): HELLO is ignored *)
        | Some `Hello -> ()
        | None -> net.Transport.stats.drops <- net.Transport.stats.drops + 1
    end
    else rnode_apply rn v
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if Rsm.terminated rn.r_rsm then Ok ()
    else if not (Queue.is_empty rn.r_local) then begin
      rnode_drain rn;
      loop ()
    end
    else
      match net.Transport.recv_view ~timeout_s:0.05 with
      | Some v ->
        deliver v;
        loop ()
      | None ->
        if Unix.gettimeofday () >= deadline then
          Error
            (Printf.sprintf "rsm node %d timed out after %.1fs (%d/%d epochs committed)" me
               timeout_s (Rsm.committed_epochs rn.r_rsm) params.Rsm.epochs)
        else loop ()
  in
  match loop () with
  | Error _ as e -> e
  | Ok () ->
    (* everything this replica will ever send is already on the wire: a
       laggard only needs our past frames, which TCP/Unix sockets deliver
       reliably - so linger to keep the connections alive, not to answer *)
    let bye = encode_ctrl ~sender:me ctrl_bye in
    for d = 0 to n - 1 do
      if d <> me then net.Transport.send ~dst:d bye
    done;
    let linger_until = Unix.gettimeofday () +. linger_s in
    ignore (net.Transport.flush ~timeout_s:(Float.min linger_s 1.0));
    let rec linger () =
      let now = Unix.gettimeofday () in
      if now < linger_until && !bye_count < n - 1 then begin
        (match net.Transport.recv_view ~timeout_s:(Float.min 0.05 (linger_until -. now)) with
        | Some v -> deliver v
        | None -> ());
        linger ()
      end
    in
    linger ();
    ignore (net.Transport.flush ~timeout_s:0.5);
    let log = Rsm.log rn.r_rsm in
    Ok
      { r_pid = me;
        r_epochs = Rsm.committed_epochs rn.r_rsm;
        r_txs = List.length log;
        r_hash = rsm_log_hash log;
        r_frames = net.Transport.stats.frames_out;
        r_bytes = net.Transport.stats.bytes_out }

(* ---- open-loop load generator (in-process socket cluster) ------------ *)

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
  pr_lats : float list ref;
  pr_committed : int ref;
  pr_last_commit : float ref;
}

let rsm_probe () =
  { pr_submit = Hashtbl.create 256;
    pr_lats = ref [];
    pr_committed = ref 0;
    pr_last_commit = ref 0. }

let rsm_probe_commit pr ~epoch:_ txs =
  let now = Unix.gettimeofday () in
  List.iter
    (fun tx ->
      pr.pr_committed := !(pr.pr_committed) + 1;
      pr.pr_last_commit := now;
      match Hashtbl.find_opt pr.pr_submit tx with
      | Some ts -> pr.pr_lats := (now -. ts) :: !(pr.pr_lats)
      | None -> ())
    txs

let rsm_probe_result pr ~t0 ~epochs ~frames ~bytes ~writes =
  let lats = Array.of_list !(pr.pr_lats) in
  Array.sort Float.compare lats;
  let duration = Float.max 1e-9 (!(pr.pr_last_commit) -. t0) in
  let committed = !(pr.pr_committed) in
  { lr_committed = committed;
    lr_epochs = epochs;
    lr_duration_s = duration;
    lr_tx_per_s = Float.of_int committed /. duration;
    lr_p50_ms = percentile lats 0.5 *. 1000.;
    lr_p99_ms = percentile lats 0.99 *. 1000.;
    lr_frames = frames;
    lr_bytes = bytes;
    lr_writes = writes }

let run_rsm_loadgen_loopback ?(seed = 0xB0CA1L) ?(timeout_s = 60.) params ~load =
  let n = params.Rsm.cfg.Types.n in
  let pr = rsm_probe () in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let on_commit = if pid = 0 then Some (rsm_probe_commit pr) else None in
        let st, init = Rsm.create ?on_commit params ~me:pid in
        states.(pid) <- Some st;
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let eng = loop_make ~seed ~wire:rsm_wire ~exec ~parties:[||] in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. timeout_s in
  let injected = ref 0 in
  let inject_due now =
    while
      !injected < load.lg_total
      && (load.lg_rate <= 0.
         || now -. t0 >= Float.of_int !injected /. load.lg_rate)
    do
      let i = !injected in
      let tx = rsm_load_tx ~tx_bytes:load.lg_tx_bytes i in
      (match states.(i mod n) with
      | Some st -> if Rsm.submit st tx then Hashtbl.replace pr.pr_submit tx now
      | None -> ());
      incr injected
    done
  in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now >= deadline then Error "loopback loadgen timed out"
    else begin
      inject_due now;
      if eng.le_delivered >= max_deliveries * 4 then
        Error "delivery limit reached before termination"
      else
        match loop_step eng with
        | Error _ as e -> e
        | Ok true -> go ()
        | Ok false -> Ok ()
    end
  in
  match go () with
  | Error _ as e -> e
  | Ok () ->
    let epochs = match states.(0) with Some st -> Rsm.committed_epochs st | None -> 0 in
    let frames = Array.fold_left (fun a e -> a + e.Transport.stats.frames_out) 0 eng.le_ends in
    let bytes = Array.fold_left (fun a e -> a + e.Transport.stats.bytes_out) 0 eng.le_ends in
    Ok (rsm_probe_result pr ~t0 ~epochs ~frames ~bytes ~writes:0)

let run_rsm_loadgen ?(coalesce = true) ?sndbuf_bytes ?rcvbuf_bytes ?(timeout_s = 60.)
    ?(hop_s = 0.) params ~load ~transport =
  let n = params.Rsm.cfg.Types.n in
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
    Fun.protect
      ~finally:(fun () -> !cleanup ())
      (fun () ->
        let ends =
          try Ok (make_endpoints ~coalesce ?sndbuf_bytes ?rcvbuf_bytes ~addrs ~n ())
          with Unix.Unix_error (e, fn, _) ->
            Error (`Bind (e, Printf.sprintf "%s: %s" fn (Unix.error_message e)))
        in
        match ends with
        | Error _ as e -> e
        | Ok ends ->
          let pr = rsm_probe () in
          let rns =
            Array.map
              (fun (net : Transport.t) ->
                let on_commit =
                  if net.Transport.me = 0 then Some (rsm_probe_commit pr) else None
                in
                rnode_make ?on_commit ~hop_s params ~me:net.Transport.me ~net ())
              ends
          in
          let finish () =
            Array.iter (fun (ep : Transport.t) -> ignore (ep.Transport.flush ~timeout_s:0.5)) ends;
            Array.iter (fun (ep : Transport.t) -> ep.Transport.close ()) ends
          in
          let t0 = Unix.gettimeofday () in
          let deadline = t0 +. timeout_s in
          let injected = ref 0 in
          let inject_due now =
            let any = ref false in
            while
              !injected < load.lg_total
              && (load.lg_rate <= 0.
                 || now -. t0 >= Float.of_int !injected /. load.lg_rate)
            do
              let i = !injected in
              let tx = rsm_load_tx ~tx_bytes:load.lg_tx_bytes i in
              if Rsm.submit rns.(i mod n).r_rsm tx then Hashtbl.replace pr.pr_submit tx now;
              incr injected;
              any := true
            done;
            !any
          in
          let rec loop () =
            if Array.for_all (fun rn -> Rsm.terminated rn.r_rsm) rns then Ok ()
            else begin
              let now = Unix.gettimeofday () in
              if now >= deadline then
                Error
                  (`Run
                    (Printf.sprintf "rsm loadgen timed out after %.1fs (%d/%d epochs at node 0)"
                       timeout_s
                       (Rsm.committed_epochs rns.(0).r_rsm)
                       params.Rsm.epochs))
              else begin
                let progressed = ref (inject_due now) in
                Array.iter (fun rn -> if rnode_step rn ~timeout_s:0. then progressed := true) rns;
                if not !progressed then ignore (Unix.select [] [] [] 0.0005);
                loop ()
              end
            end
          in
          let outcome = loop () in
          finish ();
          match outcome with
          | Error _ as e -> e
          | Ok () ->
            (* all replicas ran the full log: cross-check agreement on the
               committed order before reporting numbers *)
            let logs = Array.map (fun rn -> Rsm.log rn.r_rsm) rns in
            let h0 = rsm_log_hash logs.(0) in
            if not (Array.for_all (fun l -> Int64.equal (rsm_log_hash l) h0) logs) then
              Error (`Run "rsm loadgen: log DISAGREEMENT - protocol bug")
            else begin
              let frames =
                Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.frames_out) 0 ends
              in
              let bytes =
                Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.bytes_out) 0 ends
              in
              let writes =
                Array.fold_left (fun a (ep : Transport.t) -> a + ep.Transport.stats.writes) 0 ends
              in
              Ok
                (rsm_probe_result pr ~t0
                   ~epochs:(Rsm.committed_epochs rns.(0).r_rsm)
                   ~frames ~bytes ~writes)
            end)
  in
  let rec go tries =
    match attempt () with
    | Ok r -> Ok r
    | Error (`Run e) -> Error e
    | Error (`Bind (Unix.EADDRINUSE, _)) when transport = `Tcp && tries < 3 -> go (tries + 1)
    | Error (`Bind (_, msg)) -> Error (Printf.sprintf "endpoint setup failed: %s" msg)
  in
  go 1

(* ---- multi-process RSM launcher -------------------------------------- *)

type rsm_cluster_result = {
  rc_epochs : int;
  rc_txs : int;
  rc_hash : int64;
  rc_stats : net_stats;
}

let spawn_rsm_cluster ?(timeout_s = 60.) ?pick_ports ~node_exe ~cfg ~seed ~epochs ~window
    ~batch_txs ~batch_bytes ~txs_per_node ~tx_bytes ~transport () =
  let n = cfg.Types.n in
  with_spawn_attempts ?pick_ports ~timeout_s ~transport ~n
    ~argv_for:(fun ~kind ~addrs_arg me ->
      spawn_child ~node_exe
        (node_argv ~node_exe ~stack:"byz-strong" ~eps:0.25 ~cfg ~seed ~kind ~addrs_arg
           ~timeout_s
           ~extra:
             [ "--rsm";
               "--rsm-epochs"; string_of_int epochs;
               "--rsm-window"; string_of_int window;
               "--rsm-batch-txs"; string_of_int batch_txs;
               "--rsm-batch-bytes"; string_of_int batch_bytes;
               "--rsm-txs"; string_of_int txs_per_node;
               "--rsm-tx-bytes"; string_of_int tx_bytes ]
           me))
    (fun ~bufs ~statuses ~timed_out ->
      let decisions =
        Array.map
          (fun buf ->
            String.split_on_char '\n' (Buffer.contents buf) |> List.find_map parse_rsm_decision)
          bufs
      in
      let missing =
        Array.to_list decisions
        |> List.mapi (fun i d -> (i, d))
        |> List.filter_map (fun (i, d) -> if d = None then Some i else None)
      in
      if timed_out then
        Error
          (Printf.sprintf "rsm cluster timed out after %.1fs (nodes still running killed)"
             timeout_s)
      else if missing <> [] then
        Error
          (Printf.sprintf "rsm node(s) %s exited without a log (statuses: %s)"
             (String.concat ", " (List.map string_of_int missing))
             (String.concat ", " (Array.to_list (Array.map status_string statuses))))
      else begin
        let ds = Array.of_list (List.filter_map Fun.id (Array.to_list decisions)) in
        if Array.length ds <> n then Error "internal: rsm decision extraction mismatch"
        else begin
          let d0 = ds.(0) in
          let agree d =
            Int64.equal d.r_hash d0.r_hash && d.r_txs = d0.r_txs && d.r_epochs = d0.r_epochs
          in
          if not (Array.for_all agree ds) then
            Error
              (Printf.sprintf "rsm log DISAGREEMENT: [%s] - protocol bug"
                 (String.concat "; "
                    (Array.to_list
                       (Array.map
                          (fun d ->
                            Printf.sprintf "pid %d -> %d txs %016Lx" d.r_pid d.r_txs d.r_hash)
                          ds))))
          else begin
            let frames = Array.fold_left (fun a d -> a + d.r_frames) 0 ds in
            let bytes = Array.fold_left (fun a d -> a + d.r_bytes) 0 ds in
            Ok
              { rc_epochs = d0.r_epochs;
                rc_txs = d0.r_txs;
                rc_hash = d0.r_hash;
                rc_stats = { frames; bytes; words = Wire.words_of_bytes bytes } }
          end
        end
      end)
