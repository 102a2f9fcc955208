(* Crash-recovery tests.

   1. WAL codec: writer/loader round-trip, reopen-after-recovery, and the
      torn-tail contract - truncating the file at EVERY byte offset of the
      final record yields the longest valid record prefix and a torn
      diagnostic, never an exception (exhaustive loop plus a qcheck
      property over random record lists and truncation points); a
      corrupted byte mid-file likewise cuts the log at the damaged record.

   2. Kill/restart chaos: >= 200 seeded plans across the six stacks with
      kill/restart faults armed; the monitor holds every revived party to
      agreement / validity / binding, so any safety violation fails the
      test with its reproducing seed.

   3. Supervised clusters end-to-end: for every stack, real node processes
      with durable WALs, one node SIGKILLed at its commit, restarted by the
      supervisor with --recover; the cluster must still decide unanimously
      and the victim must report its WAL replay.  The commit is the kill
      point because every schedule reaches it with at least one delivery
      in the WAL: a crash-mode party may commit and terminate on a single
      peer's committed message while still in round 1, so a kill at its
      round-1 coin reveal does not fire on every schedule. *)

module Value = Bca_util.Value
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Event = Bca_obs.Event
module Wal = Bca_recovery.Wal
module Cluster = Bca_transport.Cluster
module Campaign = Bca_experiments.Chaos_campaign

let node_exe =
  match Sys.getenv_opt "BCA_NODE" with
  | Some p -> p
  | None -> Filename.concat (Filename.concat ".." "bin") "bca_node.exe"

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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

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
(* WAL codec                                                            *)
(* ------------------------------------------------------------------ *)

let meta =
  { Wal.w_stack = "byz-strong";
    w_eps = 0.25;
    w_n = 4;
    w_t = 1;
    w_me = 2;
    w_seed = 20260808L;
    w_input = Value.V1 }

let sample_records =
  [ Wal.Recv "\x01\x02frame-bytes";
    Wal.Sent { dst = 3; frame = "wire\x00frame" };
    Wal.Note { Event.ts = 7; ev = Event.Round_enter { pid = 2; round = 3 } };
    Wal.Recv "";
    Wal.Note { Event.ts = 9; ev = Event.Coin_reveal { pid = 2; round = 1; value = Value.V0 } };
    Wal.Sent { dst = 0; frame = String.make 300 'x' } ]

(* Byte offset of the end of every record (meta included) when the WAL
   holds [meta :: records] - the clean truncation points. *)
let boundaries records =
  let buf = Buffer.create 256 in
  List.map
    (fun r ->
      Wal.encode_record buf r;
      Buffer.length buf)
    (Wal.Meta meta :: records)

let test_wal_roundtrip () =
  let dir = temp_dir "bca-wal-rt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Wal.file_path ~dir ~me:2 in
  let w = Wal.create ~path meta in
  List.iter (Wal.append w) sample_records;
  Wal.close w;
  (match Wal.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (m, records, torn) ->
    Alcotest.(check bool) "meta round-trips" true (m = meta);
    Alcotest.(check bool) "records round-trip in order" true (records = sample_records);
    Alcotest.(check bool) "no torn tail" true (torn = None));
  (* reopen at the full valid length and extend *)
  let size = (Unix.stat path).Unix.st_size in
  let w2 = Wal.reopen ~path ~valid_bytes:size in
  let extra = Wal.Recv "post-recovery delivery" in
  Wal.append w2 extra;
  Wal.close w2;
  match Wal.load path with
  | Error e -> Alcotest.failf "load after reopen: %s" e
  | Ok (_, records, torn) ->
    Alcotest.(check bool) "reopen extends the record list" true
      (records = sample_records @ [ extra ]);
    Alcotest.(check bool) "still no torn tail" true (torn = None)

let test_wal_torn_tail_every_offset () =
  let dir = temp_dir "bca-wal-torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Wal.file_path ~dir ~me:0 in
  let w = Wal.create ~path meta in
  List.iter (Wal.append w) sample_records;
  Wal.close w;
  let full = read_file path in
  let bounds = boundaries sample_records in
  let record_count = List.length bounds in
  Alcotest.(check int) "re-encoding reproduces the file" (String.length full)
    (List.nth bounds (record_count - 1));
  let last_start = List.nth bounds (record_count - 2) in
  let tpath = Filename.concat dir "torn.log" in
  (* every byte offset of the final record: 0 bytes of it (a clean end)
     through all-but-one *)
  for off = last_start to String.length full - 1 do
    write_file tpath (String.sub full 0 off);
    match Wal.load tpath with
    | Error e -> Alcotest.failf "offset %d: load refused a valid prefix: %s" off e
    | Ok (m, records, torn) ->
      Alcotest.(check bool) (Printf.sprintf "offset %d: meta intact" off) true (m = meta);
      Alcotest.(check int)
        (Printf.sprintf "offset %d: longest valid prefix" off)
        (List.length sample_records - 1)
        (List.length records);
      if off = last_start then
        Alcotest.(check bool)
          (Printf.sprintf "offset %d: clean boundary, no torn tail" off)
          true (torn = None)
      else (
        match torn with
        | None -> Alcotest.failf "offset %d: torn tail not reported" off
        | Some t ->
          Alcotest.(check int)
            (Printf.sprintf "offset %d: torn offset is the record start" off)
            last_start t.Wal.torn_off)
  done

let test_wal_corrupt_byte () =
  let dir = temp_dir "bca-wal-bad" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Wal.file_path ~dir ~me:0 in
  let w = Wal.create ~path meta in
  List.iter (Wal.append w) sample_records;
  Wal.close w;
  let full = Bytes.of_string (read_file path) in
  let bounds = boundaries sample_records in
  (* flip one body byte of the second sample record (9-byte header, then
     the body): its CRC fails, the log is cut at its start, every earlier
     record survives *)
  let second_start = List.nth bounds 1 in
  let pos = second_start + 9 in
  Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0xFF));
  write_file path (Bytes.to_string full);
  match Wal.load path with
  | Error e -> Alcotest.failf "load refused the undamaged prefix: %s" e
  | Ok (m, records, torn) ->
    Alcotest.(check bool) "meta intact" true (m = meta);
    Alcotest.(check bool) "records before the damage survive" true
      (records = [ List.hd sample_records ]);
    (match torn with
    | None -> Alcotest.fail "corruption not reported as a torn tail"
    | Some t ->
      Alcotest.(check int) "cut at the damaged record" second_start t.Wal.torn_off)

(* qcheck: for ANY record list and ANY truncation offset, decode returns
   exactly the records whose encodings fit entirely within the prefix, and
   the torn diagnostic points at the last clean boundary.  Total: never an
   exception. *)
let record_gen =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Wal.Recv s) (string_size (int_bound 40));
        map2
          (fun dst s -> Wal.Sent { dst; frame = s })
          (int_bound 7)
          (string_size (int_bound 40));
        map2
          (fun ts round -> Wal.Note { Event.ts; ev = Event.Round_enter { pid = 1; round } })
          (int_bound 1000) (int_bound 50) ])

let prop_torn_prefix =
  QCheck.Test.make ~name:"wal decode: longest valid prefix at any truncation" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 8) record_gen) (int_bound 100_000)))
    (fun (records, cut0) ->
      let bounds = boundaries records in
      let buf = Buffer.create 256 in
      List.iter (fun r -> Wal.encode_record buf r) (Wal.Meta meta :: records);
      let s = Buffer.contents buf in
      let cut = cut0 mod (String.length s + 1) in
      let decoded, torn = Wal.decode (String.sub s 0 cut) in
      let expected = List.length (List.filter (fun b -> b <= cut) bounds) in
      let last_clean = List.fold_left (fun acc b -> if b <= cut then max acc b else acc) 0 bounds in
      List.length decoded = expected
      &&
      match torn with
      | None -> last_clean = cut
      | Some t -> last_clean < cut && t.Wal.torn_off = last_clean)

(* ------------------------------------------------------------------ *)
(* Kill/restart chaos campaign                                          *)
(* ------------------------------------------------------------------ *)

let test_kill_restart_campaign () =
  let reports = Campaign.run_all ~kills:2 ~runs:34 ~seed:20260808L () in
  let total = List.fold_left (fun a (r : Campaign.stack_report) -> a + r.Campaign.runs) 0 reports in
  Alcotest.(check bool) "at least 200 kill/restart plans" true (total >= 200);
  List.iter
    (fun (r : Campaign.stack_report) ->
      match r.Campaign.failures with
      | [] -> ()
      | worst :: _ ->
        Alcotest.failf "%s: %d safety violation(s) under kill/restart plans (seed %Ld)"
          r.Campaign.stack
          (List.length r.Campaign.failures)
          worst.Campaign.run_seed)
    reports

(* The campaign must actually be exercising the fault: across a handful of
   seeded single runs, kills fire, victims restart, and in-flight traffic
   is buffered across the outage. *)
let test_kills_actually_fire () =
  let fired = ref 0 and restarted = ref 0 and buffered = ref 0 in
  let _, spec, cfg = List.hd Campaign.six_stacks in
  for k = 1 to 20 do
    let r = Campaign.run_once ~kills:2 ~spec ~cfg ~seed:(Int64.of_int (7000 + k)) () in
    fired := !fired + r.Campaign.chaos.Bca_adversary.Chaos.kills_fired;
    restarted := !restarted + r.Campaign.chaos.Bca_adversary.Chaos.restarts;
    buffered := !buffered + r.Campaign.chaos.Bca_adversary.Chaos.kill_buffered
  done;
  (* a run may legitimately end while a victim is still down (the kill then
     degenerates to a crash), so restarts < fired - but across these seeds
     each mechanism must fire at least once *)
  Alcotest.(check bool) "some kills fired" true (!fired > 0);
  Alcotest.(check bool) "some victims were restarted" true (!restarted > 0);
  Alcotest.(check bool) "traffic was buffered across outages" true (!buffered > 0)

(* ------------------------------------------------------------------ *)
(* Supervised clusters: SIGKILL at the commit, recover, decide          *)
(* ------------------------------------------------------------------ *)

let test_supervised_kill_recover_all_stacks () =
  Alcotest.(check bool) "bca_node built" true (Sys.file_exists node_exe);
  List.iter
    (fun (name, spec) ->
      let cfg = cfg_of spec in
      let wal_dir = temp_dir "bca-sup" in
      Fun.protect ~finally:(fun () -> rm_rf wal_dir) @@ fun () ->
      match
        Cluster.spawn ~timeout_s:60. ~wal_dir ~kill_at:(1, "commit") ~node_exe ~cfg
          ~seed:20260808L ~transport:`Unix
          (Cluster.Aba_one { spec; inputs = mixed_inputs cfg.Types.n })
      with
      | Error e -> Alcotest.failf "%s: supervised cluster failed: %s" name e
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: the victim was restarted" name)
          true (r.Cluster.c_restarts >= 1);
        Alcotest.(check bool)
          (Printf.sprintf "%s: the victim recovered through its WAL" name)
          true
          (List.exists
             (fun ri -> ri.Cluster.ri_pid = 1 && ri.Cluster.ri_records > 0)
             r.Cluster.c_recoveries);
        Alcotest.(check bool)
          (Printf.sprintf "%s: WAL bytes accounted" name)
          true (r.Cluster.c_wal_bytes > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s: one commit round per party" name)
          cfg.Types.n
          (Array.length r.Cluster.c_rounds))
    (Cluster.all_stacks ())

(* The recovery gate: 4 supervised byz-strong decisions per transport,
   node 2 SIGKILLed at its commit on every 2nd decision; every decision
   must succeed and every kill must be matched by a WAL recovery. *)
let test_recovery_gate () =
  Alcotest.(check bool) "bca_node built" true (Sys.file_exists node_exe);
  let cfg = Types.cfg ~n:4 ~t:1 in
  List.iter
    (fun (transport, tname) ->
      let kills = ref 0 and recoveries = ref 0 in
      for k = 0 to 3 do
        let kill_at = if k mod 2 = 0 then Some (2, "commit") else None in
        if kill_at <> None then incr kills;
        let wal_dir = temp_dir "bca-gate" in
        match
          Fun.protect ~finally:(fun () -> rm_rf wal_dir) (fun () ->
              Cluster.spawn ~timeout_s:30. ~wal_dir ?kill_at ~node_exe ~cfg
                ~seed:(Int64.add 20260706L (Int64.of_int (3000 + k)))
                ~transport
                (Cluster.Aba_one { spec = Aba.Byz_strong; inputs = mixed_inputs 4 }))
        with
        | Ok r -> recoveries := !recoveries + List.length r.Cluster.c_recoveries
        | Error e -> Alcotest.failf "%s, decision %d: %s" tname k e
      done;
      if !recoveries < !kills then
        Alcotest.failf "%s: %d kills but only %d WAL recoveries" tname !kills !recoveries)
    [ (`Unix, "unix"); (`Tcp, "tcp") ]

let () =
  Alcotest.run "recovery"
    [ ( "wal",
        [ Alcotest.test_case "writer/loader round-trip and reopen" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail at every byte offset of the final record" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "corrupt byte cuts the log at the damaged record" `Quick
            test_wal_corrupt_byte;
          QCheck_alcotest.to_alcotest prop_torn_prefix ] );
      ( "chaos",
        [ Alcotest.test_case "200+ kill/restart plans, zero safety violations" `Slow
            test_kill_restart_campaign;
          Alcotest.test_case "kill faults fire, restart and buffer" `Quick
            test_kills_actually_fire ] );
      ( "cluster",
        [ Alcotest.test_case "SIGKILL at the commit, recover, decide" `Slow
            test_supervised_kill_recover_all_stacks;
          Alcotest.test_case "gate: kill every 2nd decision, every kill recovers" `Quick
            test_recovery_gate ] ) ]
