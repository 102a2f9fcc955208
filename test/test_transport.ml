(* Transport tests.

   1. Loopback determinism contract: for every stack and seed,
      [Cluster.run_loopback] - where every message is encoded to a wire
      frame, pooled in the hub, and decoded on delivery - is bit-identical
      to the netsim run [Aba.run] with the same seed: same decision, same
      per-party commits, same delivery count, same round count.

   2. Multi-process clusters: a 4-node (5 for crash stacks) cluster of
      real [bca_node] processes over Unix-domain sockets reaches agreement
      on all six stacks; one TCP spot check.  Every process rebuilds the
      deterministic cluster assembly from the shared seed and drives only
      its own party over the sockets. *)

module Value = Bca_util.Value
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Cluster = Bca_transport.Cluster
module Transport = Bca_transport.Transport
module Batcher = Bca_transport.Batcher
module W = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Wf = Bca_core.Wirefmt

let node_exe =
  match Sys.getenv_opt "BCA_NODE" with
  | Some p -> p
  | None -> Filename.concat (Filename.concat ".." "bin") "bca_node.exe"

let cfg_of spec =
  let byz =
    match spec with
    | Aba.Crash_strong | Aba.Crash_weak _ | Aba.Crash_local -> false
    | _ -> true
  in
  let n = if byz then 4 else 5 in
  Types.cfg ~n ~t:(if byz then (n - 1) / 3 else (n - 1) / 2)

let mixed_inputs n = Array.init n (fun i -> if i mod 2 = 0 then Value.V0 else Value.V1)

(* ------------------------------------------------------------------ *)
(* Loopback bit-identity                                                *)
(* ------------------------------------------------------------------ *)

let check_identical name seed (sim : Aba.result) (loop : Aba.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s seed=%Ld: same decision" name seed)
    true
    (Value.equal sim.Aba.value loop.Aba.value);
  Alcotest.(check bool)
    (Printf.sprintf "%s seed=%Ld: same per-party commits" name seed)
    true
    (Array.for_all2 Value.equal sim.Aba.commits loop.Aba.commits);
  Alcotest.(check int)
    (Printf.sprintf "%s seed=%Ld: same delivery count" name seed)
    sim.Aba.deliveries loop.Aba.deliveries;
  Alcotest.(check int)
    (Printf.sprintf "%s seed=%Ld: same round count" name seed)
    sim.Aba.rounds loop.Aba.rounds

let test_loopback_bit_identical () =
  List.iter
    (fun (name, spec) ->
      let cfg = cfg_of spec in
      let inputs = mixed_inputs cfg.Types.n in
      List.iter
        (fun seed ->
          match (Aba.run ~seed spec ~cfg ~inputs, Cluster.run_loopback ~seed spec ~cfg ~inputs) with
          | Ok sim, Ok (loop, stats) ->
            check_identical name seed sim loop;
            Alcotest.(check bool)
              (Printf.sprintf "%s seed=%Ld: traffic accounted" name seed)
              true
              (stats.Cluster.frames > 0
              && stats.Cluster.bytes > stats.Cluster.frames
              && stats.Cluster.words > 0)
          | Error e, _ -> Alcotest.failf "%s seed=%Ld: netsim run failed: %s" name seed e
          | _, Error e -> Alcotest.failf "%s seed=%Ld: loopback run failed: %s" name seed e)
        [ 1L; 42L; 20260806L ])
    (Cluster.all_stacks ())

(* The hub really moves encoded frames: a loopback endpoint's outbound
   traffic is decodable and the per-endpoint stats add up. *)
let test_loopback_endpoint_stats () =
  List.iter
    (fun (name, spec) ->
      let cfg = cfg_of spec in
      match Cluster.run_loopback ~seed:7L spec ~cfg ~inputs:(mixed_inputs cfg.Types.n) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok (_, stats) ->
        (* words are rounded up per frame, so the sum is bounded below by
           the whole-run rounding and above by the byte count *)
        Alcotest.(check bool)
          (Printf.sprintf "%s: words consistent with bytes" name)
          true
          (stats.Cluster.words >= Bca_wire.Wire.words_of_bytes stats.Cluster.bytes
          && stats.Cluster.words <= stats.Cluster.bytes))
    (Cluster.all_stacks ())

(* ------------------------------------------------------------------ *)
(* Batcher flush policies                                               *)
(* ------------------------------------------------------------------ *)

let batcher_pair ?policy () =
  let hub = Transport.Loopback.create_hub ~n:2 () in
  let ep0 = Transport.Loopback.endpoint hub ~me:0 in
  let ep1 = Transport.Loopback.endpoint hub ~me:1 in
  let bat = Batcher.create ?policy ~inner_codec_id:Wf.byz_strong.Bca_wire.Wire.id ep0 in
  (bat, ep1)

let body_bytes = "0123456789" (* 10-byte record bodies *)

let send_one bat ~instance = Batcher.send bat ~dst:1 ~instance ~enc:(fun buf ->
    Buffer.add_string buf body_bytes)

(* Drain every batch frame pending at [ep] into a flat (instance, body)
   list.  Batches may arrive in any order (the loopback hub delivers
   randomly), so callers compare sorted lists. *)
let drain_records ep =
  let records = ref [] in
  let rec go () =
    match ep.Transport.recv_view ~timeout_s:0.05 with
    | None -> ()
    | Some v ->
      (match
         Batch.iter_view v ~record:(fun ~instance g ->
             records := (instance, W.Get.take g (W.Get.remaining g)) :: !records)
       with
      | Ok (inner, _) ->
        Alcotest.(check int) "inner codec id" Wf.byz_strong.W.id inner
      | Error e -> Alcotest.failf "batch decode: %s" (W.error_to_string e));
      go ()
  in
  go ();
  List.sort compare !records

let test_batcher_count_trigger () =
  let bat, ep1 = batcher_pair ~policy:(Batcher.policy ~max_records:3 ~max_bytes:1_000_000 ()) () in
  for i = 0 to 6 do
    send_one bat ~instance:i
  done;
  let st = Batcher.stats bat in
  Alcotest.(check int) "count flushes after 7 sends" 2 st.Batcher.count_flushes;
  Alcotest.(check int) "batches" 2 st.Batcher.batches;
  Alcotest.(check int) "records" 7 st.Batcher.records;
  Alcotest.(check int) "one record still open" 1 (Batcher.pending bat);
  Batcher.flush bat;
  Alcotest.(check int) "explicit flush" 1 st.Batcher.explicit_flushes;
  Alcotest.(check int) "nothing pending" 0 (Batcher.pending bat);
  Alcotest.(check int) "max occupancy" 3 st.Batcher.max_occupancy;
  (* a second flush of empty slots is a no-op *)
  Batcher.flush bat;
  Alcotest.(check int) "empty flush is a no-op" 3 st.Batcher.batches;
  let expect = List.init 7 (fun i -> (i, body_bytes)) in
  Alcotest.(check bool) "every record delivered exactly once" true (drain_records ep1 = expect)

let test_batcher_size_trigger () =
  (* each record is 12 bytes (two 1-byte varints + 10-byte body), so the
     64-byte bound fires on the 6th record *)
  let bat, ep1 = batcher_pair ~policy:(Batcher.policy ~max_records:1_000 ~max_bytes:64 ()) () in
  for i = 0 to 5 do
    send_one bat ~instance:i
  done;
  let st = Batcher.stats bat in
  Alcotest.(check int) "size flush on 6th record" 1 st.Batcher.size_flushes;
  Alcotest.(check int) "count trigger never fired" 0 st.Batcher.count_flushes;
  Alcotest.(check int) "occupancy = records per size batch" 6 st.Batcher.max_occupancy;
  Alcotest.(check int) "records delivered" 6 (List.length (drain_records ep1))

let test_batcher_immediate () =
  let bat, ep1 = batcher_pair ~policy:Batcher.immediate () in
  for i = 0 to 4 do
    send_one bat ~instance:i
  done;
  let st = Batcher.stats bat in
  Alcotest.(check int) "one batch per record" 5 st.Batcher.batches;
  Alcotest.(check int) "never more than one record per frame" 1 st.Batcher.max_occupancy;
  Alcotest.(check int) "nothing ever pends" 0 (Batcher.pending bat);
  Alcotest.(check int) "records delivered" 5 (List.length (drain_records ep1))

let test_batcher_broadcast_except () =
  let hub = Transport.Loopback.create_hub ~n:3 () in
  let ep0 = Transport.Loopback.endpoint hub ~me:0 in
  let bat = Batcher.create ~policy:(Batcher.policy ~max_records:100 ())
      ~inner_codec_id:Wf.byz_strong.W.id ep0 in
  Batcher.broadcast ~except:0 bat ~instance:3 ~enc:(fun buf -> Buffer.add_string buf body_bytes);
  Alcotest.(check int) "one record per other destination" 2 (Batcher.pending bat);
  Batcher.flush bat;
  Alcotest.(check int) "one batch per destination" 2 (Batcher.stats bat).Batcher.batches;
  Alcotest.(check int) "hub saw both frames" 2 (Transport.Loopback.pending hub)

(* ------------------------------------------------------------------ *)
(* Multi-instance executors                                             *)
(* ------------------------------------------------------------------ *)

(* The multi-instance oracle: instance [k] of a round-robin interleaved
   run is bit-identical to a solo loopback run of the derived seed. *)
let test_loopback_multi_bit_identical () =
  let seed = 99L in
  List.iter
    (fun (name, spec) ->
      let cfg = cfg_of spec in
      let instances = 5 in
      match Cluster.run_loopback_multi ~seed spec ~cfg ~instances with
      | Error e -> Alcotest.failf "%s: multi run failed: %s" name e
      | Ok results ->
        Alcotest.(check int) "one result per instance" instances (Array.length results);
        Array.iteri
          (fun k (multi, mstats) ->
            let kseed = Cluster.instance_seed ~seed k in
            Alcotest.(check bool)
              (Printf.sprintf "%s: instance seed %d differs from cluster seed" name k)
              true (kseed <> seed);
            let inputs = Cluster.instance_inputs ~seed ~n:cfg.Types.n k in
            match Cluster.run_loopback ~seed:kseed spec ~cfg ~inputs with
            | Error e -> Alcotest.failf "%s: solo run of instance %d failed: %s" name k e
            | Ok (solo, sstats) ->
              check_identical (Printf.sprintf "%s instance %d" name k) kseed solo multi;
              Alcotest.(check bool)
                (Printf.sprintf "%s instance %d: same traffic" name k)
                true
                (sstats.Cluster.frames = mstats.Cluster.frames
                && sstats.Cluster.bytes = mstats.Cluster.bytes))
          results)
    [ ("byz-strong", Aba.Byz_strong); ("crash-weak", Aba.Crash_weak 0.25) ]

(* The in-process socket cluster (the bench harness) decides exactly what
   the loopback oracle says each instance must decide - over both the
   batched hot path and the per-message baseline. *)
let test_inproc_cluster_matches_loopback_multi () =
  let spec = Aba.Byz_strong in
  let cfg = cfg_of spec in
  let seed = 23L in
  let instances = 8 in
  match Cluster.run_loopback_multi ~seed spec ~cfg ~instances with
  | Error e -> Alcotest.failf "loopback multi: %s" e
  | Ok oracle ->
    List.iter
      (fun (label, policy, coalesce) ->
        match
          Cluster.run_inproc_cluster ~seed ~policy ~coalesce spec ~cfg ~instances
            ~transport:`Unix
        with
        | Error e -> Alcotest.failf "%s: %s" label e
        | Ok r ->
          Alcotest.(check int)
            (Printf.sprintf "%s: one value per instance" label)
            instances
            (Array.length r.Cluster.ir_values);
          Array.iteri
            (fun k v ->
              let (solo, _) = oracle.(k) in
              Alcotest.(check bool)
                (Printf.sprintf "%s: instance %d decides the oracle value" label k)
                true
                (Value.equal solo.Aba.value v))
            r.Cluster.ir_values;
          Alcotest.(check bool)
            (Printf.sprintf "%s: traffic flowed" label)
            true
            (r.Cluster.ir_frames > 0 && r.Cluster.ir_bytes > 0 && r.Cluster.ir_writes > 0))
      [ ("batched", Batcher.policy (), true);
        ("per-message", Batcher.immediate, false) ];
    (* batching strictly reduces frames and writes on the same workload *)
    (match
       ( Cluster.run_inproc_cluster ~seed ~policy:(Batcher.policy ()) ~coalesce:true spec ~cfg
           ~instances ~transport:`Unix,
         Cluster.run_inproc_cluster ~seed ~policy:Batcher.immediate ~coalesce:false spec ~cfg
           ~instances ~transport:`Unix )
     with
    | Ok batched, Ok unbatched ->
      Alcotest.(check bool) "batched sends fewer frames" true
        (batched.Cluster.ir_frames < unbatched.Cluster.ir_frames);
      Alcotest.(check bool) "batched issues fewer writes" true
        (batched.Cluster.ir_writes < unbatched.Cluster.ir_writes);
      Alcotest.(check bool) "batched occupancy above one" true
        (batched.Cluster.ir_max_occupancy > 1)
    | Error e, _ | _, Error e -> Alcotest.failf "comparison rerun: %s" e)

(* ------------------------------------------------------------------ *)
(* Socket reconnection: backoff reset and dead-peer revival             *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  (match Sys.readdir dir with
  | entries ->
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) entries
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let raw_frame ~sender body = W.encode_raw ~codec_id:Wf.byz_strong.W.id ~sender body

(* Pump [a] until [b] receives a frame (or the deadline passes). *)
let pump_until_recv a b ~what =
  let deadline = Unix.gettimeofday () +. 10. in
  let got = ref None in
  while !got = None && Unix.gettimeofday () < deadline do
    ignore (a.Transport.flush ~timeout_s:0.01);
    got := b.Transport.recv ~timeout_s:0.05
  done;
  match !got with
  | Some f -> f
  | None -> Alcotest.failf "%s: frame never arrived" what

(* A completed reconnect must reset the backoff state: a peer that flaps -
   fails, comes back, fails again - gets a full retry budget after every
   successful handshake and is never given up (no drops), however many
   failures it accumulated across flaps. *)
let test_socket_backoff_reset_on_reconnect () =
  let dir = temp_dir "bca-backoff" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let addrs = Transport.Socket.unix_addrs ~dir ~n:2 in
  let a =
    Transport.Socket.endpoint ~backoff_base_s:0.001 ~backoff_cap_s:0.005 ~max_retries:4
      ~addrs ~me:0 ()
  in
  Fun.protect ~finally:(fun () -> a.Transport.close ()) @@ fun () ->
  a.Transport.send ~dst:1 (raw_frame ~sender:0 "ping");
  (* phase 1: nobody listening - fail three times, one short of give-up *)
  let deadline = Unix.gettimeofday () +. 10. in
  while a.Transport.stats.Transport.retries < 3 && Unix.gettimeofday () < deadline do
    ignore (a.Transport.flush ~timeout_s:0.01)
  done;
  Alcotest.(check bool) "failures accumulated" true (a.Transport.stats.Transport.retries >= 3);
  Alcotest.(check int) "nothing dropped while retrying" 0 a.Transport.stats.Transport.drops;
  (* phase 2: the peer comes up; the queued frame goes through *)
  let b = Transport.Socket.endpoint ~addrs ~me:1 () in
  let f = pump_until_recv a b ~what:"after the peer came up" in
  Alcotest.(check string) "queued frame delivered on reconnect" "ping" f.W.body;
  (* phase 3: the peer goes away again.  The reset counter affords a full
     fresh round of retries: without the reset, the first new failure
     would cross max_retries and give the peer up, dropping the frame. *)
  b.Transport.close ();
  a.Transport.send ~dst:1 (raw_frame ~sender:0 "ping2");
  let before = a.Transport.stats.Transport.retries in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    a.Transport.stats.Transport.retries - before < 3 && Unix.gettimeofday () < deadline
  do
    ignore (a.Transport.flush ~timeout_s:0.01)
  done;
  Alcotest.(check bool) "full retry budget again after the flap" true
    (a.Transport.stats.Transport.retries - before >= 3);
  Alcotest.(check int) "peer never given up across flaps" 0 a.Transport.stats.Transport.drops;
  (* and the frame still lands once the peer returns a second time *)
  let b2 = Transport.Socket.endpoint ~addrs ~me:1 () in
  Fun.protect ~finally:(fun () -> b2.Transport.close ()) @@ fun () ->
  let f = pump_until_recv a b2 ~what:"after the second flap" in
  Alcotest.(check string) "frame delivered after the second flap" "ping2" f.W.body

(* A frame from a given-up peer resurrects it (Dead -> Idle): the
   transport half of crash recovery.  Without revival a restarted node
   could hear the cluster but never be answered. *)
let test_socket_dead_peer_revival () =
  let dir = temp_dir "bca-revive" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let addrs = Transport.Socket.unix_addrs ~dir ~n:2 in
  let a =
    Transport.Socket.endpoint ~backoff_base_s:0.001 ~backoff_cap_s:0.002 ~max_retries:2
      ~addrs ~me:0 ()
  in
  Fun.protect ~finally:(fun () -> a.Transport.close ()) @@ fun () ->
  a.Transport.send ~dst:1 (raw_frame ~sender:0 "lost");
  (* nobody ever listens: peer 1 is given up, its queued frame dropped *)
  let deadline = Unix.gettimeofday () +. 10. in
  while a.Transport.stats.Transport.drops = 0 && Unix.gettimeofday () < deadline do
    ignore (a.Transport.flush ~timeout_s:0.01)
  done;
  Alcotest.(check bool) "peer given up" true (a.Transport.stats.Transport.drops > 0);
  (* the "restarted" peer appears and speaks first *)
  let b = Transport.Socket.endpoint ~addrs ~me:1 () in
  Fun.protect ~finally:(fun () -> b.Transport.close ()) @@ fun () ->
  b.Transport.send ~dst:0 (raw_frame ~sender:1 "hello again");
  let f = pump_until_recv b a ~what:"revival trigger" in
  Alcotest.(check string) "inbound frame received" "hello again" f.W.body;
  (* hearing it revived the outgoing side: a can answer now *)
  a.Transport.send ~dst:1 (raw_frame ~sender:0 "welcome back");
  let f = pump_until_recv a b ~what:"post-revival send" in
  Alcotest.(check string) "answer reaches the revived peer" "welcome back" f.W.body

(* ------------------------------------------------------------------ *)
(* The node report line                                                 *)
(* ------------------------------------------------------------------ *)

let report ?recovery ~key ~rounds () =
  { Cluster.rp_pid = 2; rp_key = key; rp_rounds = rounds; rp_frames = 41; rp_bytes = 4096;
    rp_batches = 7; rp_records = 29; rp_recovery = recovery }

let report_kinds =
  [ ("value", report ~key:(Cluster.Value Value.V1) ~rounds:[| 3 |] ());
    ( "values",
      report ~key:(Cluster.Values [| Value.V0; Value.V1; Value.V1 |]) ~rounds:[| 1; 4; 2 |] () );
    ("log", report ~key:(Cluster.Log { epochs = 6; txs = 12; hash = -0x35a1L }) ~rounds:[||] ());
    ( "value, recovered",
      report
        ~recovery:
          { Cluster.ri_pid = 2; ri_records = 24; ri_wal_bytes = 706; ri_replay_s = 0.1234567 }
        ~key:(Cluster.Value Value.V0) ~rounds:[| 2 |] () ) ]

let test_report_line_roundtrip () =
  List.iter
    (fun (kind, r) ->
      let line = Cluster.report_to_line r in
      Alcotest.(check bool) (kind ^ ": one line") false (String.contains line '\n');
      match Cluster.report_of_line line with
      | None -> Alcotest.failf "%s: %S does not parse back" kind line
      | Some r' -> Alcotest.(check bool) (kind ^ ": round trip") true (r = r'))
    report_kinds

let test_report_line_rejects () =
  let rejects what line =
    Alcotest.(check bool) (Printf.sprintf "%s: %S rejected" what line) true
      (Cluster.report_of_line line = None)
  in
  rejects "non-binary value"
    "REPORT pid=0 frames=1 bytes=2 batches=0 records=0 value=2 rounds=1 end";
  rejects "non-binary values"
    "REPORT pid=0 frames=1 bytes=2 batches=0 records=0 values=0120 rounds=1,1,1,1 end";
  rejects "values/rounds mismatch"
    "REPORT pid=0 frames=1 bytes=2 batches=0 records=0 values=011 rounds=1,1 end";
  rejects "value with two rounds"
    "REPORT pid=0 frames=1 bytes=2 batches=0 records=0 value=1 rounds=1,2 end";
  rejects "repeated field"
    "REPORT pid=0 pid=1 frames=1 bytes=2 batches=0 records=0 value=1 rounds=1 end";
  rejects "short hash"
    "REPORT pid=0 frames=1 bytes=2 batches=0 records=0 epochs=1 txs=1 hash=ff end";
  rejects "another line" "bca_node: node 0 timed out";
  (* every proper prefix of every kind *)
  List.iter
    (fun (kind, r) ->
      let line = Cluster.report_to_line r in
      for k = 0 to String.length line - 1 do
        rejects (kind ^ " truncated") (String.sub line 0 k)
      done)
    report_kinds

(* ------------------------------------------------------------------ *)
(* Multi-process clusters over real sockets                             *)
(* ------------------------------------------------------------------ *)

let spawn name spec ~transport ~seed =
  let cfg = cfg_of spec in
  let inputs = mixed_inputs cfg.Types.n in
  match
    Cluster.spawn ~timeout_s:60. ~node_exe ~cfg ~seed ~transport
      (Cluster.Aba_one { spec; inputs })
  with
  | Error e -> Alcotest.failf "%s over %s: %s" name
                 (match transport with `Unix -> "unix" | `Tcp -> "tcp")
                 e
  | Ok r -> (cfg, r)

let test_unix_cluster_all_stacks () =
  Alcotest.(check bool) "bca_node built" true (Sys.file_exists node_exe);
  List.iter
    (fun (name, spec) ->
      let cfg, r = spawn name spec ~transport:`Unix ~seed:11L in
      Alcotest.(check int)
        (Printf.sprintf "%s: one commit round per party" name)
        cfg.Types.n
        (Array.length r.Cluster.c_rounds);
      Array.iter
        (fun round ->
          Alcotest.(check bool) (Printf.sprintf "%s: positive round" name) true (round >= 1))
        r.Cluster.c_rounds;
      Alcotest.(check bool)
        (Printf.sprintf "%s: traffic flowed" name)
        true
        (r.Cluster.c_stats.Cluster.frames > 0 && r.Cluster.c_stats.Cluster.bytes > 0))
    (Cluster.all_stacks ())

(* A socket cluster decides the same value as the deterministic loopback
   run of the same seed: the decision is a function of the seed, not of
   socket scheduling. *)
let test_unix_cluster_matches_loopback () =
  let spec = Aba.Byz_strong in
  let cfg = cfg_of spec in
  let seed = 5L in
  match Cluster.run_loopback ~seed spec ~cfg ~inputs:(mixed_inputs cfg.Types.n) with
  | Error e -> Alcotest.failf "loopback: %s" e
  | Ok (loop, _) ->
    let _, r = spawn "byz-strong" spec ~transport:`Unix ~seed in
    Alcotest.(check bool) "same decision as loopback" true
      (Value.equal loop.Aba.value (Cluster.key_values r.Cluster.c_key).(0))

let test_tcp_cluster () =
  let _, r = spawn "byz-strong" Aba.Byz_strong ~transport:`Tcp ~seed:3L in
  Alcotest.(check bool) "tcp cluster decided" true
    (r.Cluster.c_stats.Cluster.frames > 0)

(* Real multi-instance processes: n nodes, each running [bca_node
   --instances B], agree per instance on exactly the loopback oracle's
   values. *)
let test_unix_cluster_multi () =
  let spec = Aba.Byz_strong in
  let cfg = cfg_of spec in
  let seed = 17L in
  let instances = 8 in
  match
    ( Cluster.run_loopback_multi ~seed spec ~cfg ~instances,
      Cluster.spawn ~timeout_s:60. ~node_exe ~cfg ~seed ~transport:`Unix
        (Cluster.Aba_many { spec; instances; policy = Batcher.policy () }) )
  with
  | Error e, _ -> Alcotest.failf "loopback multi: %s" e
  | _, Error e -> Alcotest.failf "spawned multi cluster: %s" e
  | Ok oracle, Ok r ->
    let values = Cluster.key_values r.Cluster.c_key in
    Alcotest.(check int) "one value per instance" instances (Array.length values);
    Array.iteri
      (fun k v ->
        let solo, _ = oracle.(k) in
        Alcotest.(check bool)
          (Printf.sprintf "instance %d matches the loopback oracle" k)
          true
          (Value.equal solo.Aba.value v))
      values;
    Array.iter
      (fun round -> Alcotest.(check bool) "positive round" true (round >= 1))
      r.Cluster.c_rounds;
    Alcotest.(check bool) "batch frames carried the records" true
      (r.Cluster.c_batches > 0 && r.Cluster.c_records > r.Cluster.c_batches)

(* The launcher owns the rendezvous tmpdir (bca-cluster-<pid>-<k> under
   the system temp dir): a cluster whose nodes all fail must still remove
   it - cleanup is exception/exit-safe, not success-path-only. *)
let cluster_tmpdirs () =
  let tmp = Filename.get_temp_dir_name () in
  let prefix = Printf.sprintf "bca-cluster-%d-" (Unix.getpid ()) in
  match Sys.readdir tmp with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> String.length e >= String.length prefix
                             && String.sub e 0 (String.length prefix) = prefix)
    |> List.sort compare
  | exception Sys_error _ -> []

(* Supervision restarts a node from its WAL, which only the single
   agreement keeps: the launcher refuses a WAL dir for the other
   workloads, and a kill trigger without one, before forking anything. *)
let test_supervision_needs_single_agreement () =
  let cfg = cfg_of Aba.Byz_strong in
  let spawn ?wal_dir ?kill_at job =
    Cluster.spawn ~timeout_s:5. ?wal_dir ?kill_at ~node_exe:"/nonexistent" ~cfg ~seed:1L
      ~transport:`Unix job
  in
  let refused what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  refused "WAL dir with B instances"
    (spawn ~wal_dir:"/tmp"
       (Cluster.Aba_many
          { spec = Aba.Byz_strong; instances = 2; policy = Batcher.policy () }));
  refused "WAL dir with the log"
    (spawn ~wal_dir:"/tmp"
       (Cluster.Rsm_log
          { epochs = 2; window = 1; batch = Bca_rsm.Rsm.default_batch; txs_per_node = 1;
            tx_bytes = 16 }));
  refused "kill trigger without a WAL dir"
    (spawn ~kill_at:(1, "coin:1")
       (Cluster.Aba_one { spec = Aba.Byz_strong; inputs = mixed_inputs cfg.Types.n }))

let test_failing_cluster_cleans_tmpdir () =
  let false_exe =
    if Sys.file_exists "/bin/false" then "/bin/false" else "/usr/bin/false"
  in
  let spec = Aba.Byz_strong in
  let cfg = cfg_of spec in
  let before = cluster_tmpdirs () in
  (match
     Cluster.spawn ~timeout_s:20. ~node_exe:false_exe ~cfg ~seed:31L ~transport:`Unix
       (Cluster.Aba_one { spec; inputs = mixed_inputs cfg.Types.n })
   with
  | Ok _ -> Alcotest.fail "a cluster of /bin/false nodes cannot decide"
  | Error _ -> ());
  Alcotest.(check (list string))
    "failing cluster leaves no rendezvous tmpdir behind" before (cluster_tmpdirs ())

(* Losing a TCP bind race exits the node with the dedicated code and the
   launcher retries the whole attempt on fresh ports.  Provoked
   deterministically via the pick_ports hook: attempt 1 is handed ports we
   already hold listeners on, attempt 2 picks fresh ones. *)
let test_tcp_addr_in_use_retry () =
  let spec = Aba.Byz_strong in
  let cfg = cfg_of spec in
  let n = cfg.Types.n in
  let blockers =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen fd 1;
        fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) blockers)
  @@ fun () ->
  let blocked_ports =
    Array.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      blockers
  in
  let attempts = ref [] in
  let pick_ports ~attempt =
    attempts := attempt :: !attempts;
    if attempt = 1 then blocked_ports else Transport.Socket.pick_tcp_ports ~n
  in
  match
    Cluster.spawn ~timeout_s:60. ~pick_ports ~node_exe ~cfg ~seed:29L ~transport:`Tcp
      (Cluster.Aba_one { spec; inputs = mixed_inputs n })
  with
  | Error e -> Alcotest.failf "cluster did not survive the port clash: %s" e
  | Ok r ->
    Alcotest.(check bool) "decided after the retry" true
      (r.Cluster.c_stats.Cluster.frames > 0);
    Alcotest.(check bool) "the clashing ports were tried first" true (List.mem 1 !attempts);
    Alcotest.(check bool) "a fresh attempt followed" true
      (List.exists (fun a -> a > 1) !attempts)

(* ------------------------------------------------------------------ *)
(* Replicated log (RSM) over real transports                            *)
(* ------------------------------------------------------------------ *)

module Rsm = Bca_rsm.Rsm

let rsm_params ?(epochs = 4) ?(window = 2) () =
  Rsm.mk_params ~cfg:(Types.cfg ~n:4 ~t:1) ~coin_seed:404L ~epochs ~window ()

let rsm_txs_of pid = Cluster.rsm_workload ~pid ~count:3 ~tx_bytes:24

(* The windowed-executor oracle: the loopback engine (every hop through
   the codec-7 wire format) must be bit-identical to the netsim run of
   the same seed - same per-replica logs, epoch for epoch. *)
let test_rsm_loopback_matches_netsim () =
  List.iter
    (fun (seed, window) ->
      let params = rsm_params ~window () in
      let states = Array.make 4 None in
      let exec =
        Bca_netsim.Async_exec.create ~n:4 ~make:(fun pid ->
            let st, init = Rsm.create params ~me:pid in
            states.(pid) <- Some st;
            List.iter (fun tx -> ignore (Rsm.submit st tx : bool)) (rsm_txs_of pid);
            (Rsm.node st, List.map (fun m -> Bca_netsim.Node.Broadcast m) init))
      in
      let outcome =
        Bca_netsim.Async_exec.run exec
          (Bca_netsim.Async_exec.random_scheduler (Bca_util.Rng.create seed))
      in
      Alcotest.(check bool)
        (Printf.sprintf "netsim terminated (seed=%Ld)" seed)
        true (outcome = `All_terminated);
      let sim_logs = Array.map (function Some st -> Rsm.log st | None -> []) states in
      match Cluster.run_rsm_loopback ~seed params ~txs:rsm_txs_of with
      | Error e -> Alcotest.failf "loopback rsm failed (seed=%Ld): %s" seed e
      | Ok r ->
        Array.iteri
          (fun pid log ->
            Alcotest.(check (list string))
              (Printf.sprintf "replica %d log bit-identical (seed=%Ld w=%d)" pid seed window)
              sim_logs.(pid) log)
          r.Cluster.rl_logs;
        Alcotest.(check bool) "committed something" true (List.length r.Cluster.rl_logs.(0) > 0))
    [ (7L, 1); (7L, 2); (11L, 3); (23L, 2) ]

(* The loopback load generator: a preloaded load commits in full, the log
   runs to its last epoch, and the latency percentiles are ordered. *)
let test_rsm_loadgen_loopback () =
  let params = rsm_params ~epochs:8 ~window:3 () in
  let load = { Cluster.lg_rate = 0.; lg_total = 24; lg_tx_bytes = 32 } in
  match Cluster.run_rsm_loadgen_loopback ~seed:9L ~timeout_s:60. params ~load with
  | Error e -> Alcotest.failf "loopback loadgen failed: %s" e
  | Ok r ->
    Alcotest.(check int) "all transactions committed" 24 r.Cluster.lr_committed;
    Alcotest.(check int) "full log" params.Rsm.epochs r.Cluster.lr_epochs;
    Alcotest.(check bool) "p99 >= p50" true (r.Cluster.lr_p99_ms >= r.Cluster.lr_p50_ms);
    Alcotest.(check int) "no socket writes on the hub" 0 r.Cluster.lr_writes

let test_rsm_loadgen_unix () =
  (* epochs 0..window-1 open (empty) at construction; the preloaded
     transactions land from epoch [window] on, with slack epochs for
     proposals an epoch's ACS excluded (they re-queue) *)
  let params = rsm_params ~epochs:8 ~window:3 () in
  let load = { Cluster.lg_rate = 0.; lg_total = 24; lg_tx_bytes = 32 } in
  match Cluster.run_rsm_loadgen ~timeout_s:60. params ~load ~transport:`Unix with
  | Error e -> Alcotest.failf "rsm loadgen failed: %s" e
  | Ok r ->
    Alcotest.(check int) "all transactions committed" 24 r.Cluster.lr_committed;
    Alcotest.(check int) "full log" 8 r.Cluster.lr_epochs;
    Alcotest.(check bool) "throughput measured" true (r.Cluster.lr_tx_per_s > 0.);
    Alcotest.(check bool) "latency measured" true (r.Cluster.lr_p50_ms > 0.);
    Alcotest.(check bool) "p99 >= p50" true (r.Cluster.lr_p99_ms >= r.Cluster.lr_p50_ms)

let spawn_rsm transport =
  Result.map
    (fun r ->
      match r.Cluster.c_key with
      | Cluster.Log l -> (l.epochs, l.txs, r)
      | Cluster.Value _ | Cluster.Values _ -> Alcotest.fail "a log cluster reported a binary key")
    (Cluster.spawn ~timeout_s:60. ~node_exe ~cfg:(Types.cfg ~n:4 ~t:1) ~seed:404L ~transport
       (Cluster.Rsm_log
          { epochs = 6; window = 2; batch = { Rsm.max_txs = 8; max_bytes = 4096 };
            txs_per_node = 3; tx_bytes = 24 }))

let test_rsm_cluster_unix () =
  Alcotest.(check bool) "bca_node built" true (Sys.file_exists node_exe);
  match spawn_rsm `Unix with
  | Error e -> Alcotest.failf "unix rsm cluster failed: %s" e
  | Ok (epochs, txs, r) ->
    Alcotest.(check int) "all epochs committed" 6 epochs;
    Alcotest.(check int) "all 12 workload txs committed" 12 txs;
    Alcotest.(check bool) "traffic counted" true (r.Cluster.c_stats.Cluster.frames > 0)

let test_rsm_cluster_tcp () =
  match spawn_rsm `Tcp with
  | Error e -> Alcotest.failf "tcp rsm cluster failed: %s" e
  | Ok (_, txs, _) -> Alcotest.(check int) "all 12 workload txs committed" 12 txs

let () =
  Alcotest.run "transport"
    [ ( "loopback",
        [ Alcotest.test_case "bit-identical to netsim on all six stacks" `Quick
            test_loopback_bit_identical;
          Alcotest.test_case "stats words/bytes consistent" `Quick test_loopback_endpoint_stats ] );
      ( "batcher",
        [ Alcotest.test_case "count trigger" `Quick test_batcher_count_trigger;
          Alcotest.test_case "size trigger" `Quick test_batcher_size_trigger;
          Alcotest.test_case "immediate policy" `Quick test_batcher_immediate;
          Alcotest.test_case "broadcast skips except" `Quick test_batcher_broadcast_except ] );
      ( "multi",
        [ Alcotest.test_case "loopback multi bit-identical to solo runs" `Quick
            test_loopback_multi_bit_identical;
          Alcotest.test_case "inproc socket cluster matches the oracle" `Slow
            test_inproc_cluster_matches_loopback_multi ] );
      ( "reconnect",
        [ Alcotest.test_case "backoff resets after a successful reconnect" `Quick
            test_socket_backoff_reset_on_reconnect;
          Alcotest.test_case "inbound frame revives a given-up peer" `Quick
            test_socket_dead_peer_revival ] );
      ( "report",
        [ Alcotest.test_case "every report kind round-trips" `Quick test_report_line_roundtrip;
          Alcotest.test_case "malformed and truncated lines are rejected" `Quick
            test_report_line_rejects ] );
      ( "cluster",
        [ Alcotest.test_case "unix sockets: all six stacks agree" `Slow
            test_unix_cluster_all_stacks;
          Alcotest.test_case "unix sockets: decision matches loopback" `Slow
            test_unix_cluster_matches_loopback;
          Alcotest.test_case "tcp: byz-strong decides" `Slow test_tcp_cluster;
          Alcotest.test_case "unix sockets: multi-instance nodes match the oracle" `Slow
            test_unix_cluster_multi;
          Alcotest.test_case "failing cluster cleans up its tmpdir" `Quick
            test_failing_cluster_cleans_tmpdir;
          Alcotest.test_case "supervision needs the single agreement" `Quick
            test_supervision_needs_single_agreement;
          Alcotest.test_case "tcp: EADDRINUSE exit triggers a fresh-port retry" `Slow
            test_tcp_addr_in_use_retry ] );
      ( "rsm",
        [ Alcotest.test_case "loopback log bit-identical to netsim" `Quick
            test_rsm_loopback_matches_netsim;
          Alcotest.test_case "loopback loadgen commits everything" `Quick
            test_rsm_loadgen_loopback;
          Alcotest.test_case "unix sockets: open-loop loadgen commits everything" `Slow
            test_rsm_loadgen_unix;
          Alcotest.test_case "unix sockets: forked --rsm replicas agree" `Slow
            test_rsm_cluster_unix;
          Alcotest.test_case "tcp: forked --rsm replicas agree" `Slow test_rsm_cluster_tcp ] ) ]
