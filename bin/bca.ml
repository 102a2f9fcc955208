(* Command-line interface for the library.

     bca run     - run one binary agreement over a simulated cluster
     bca cluster - run one binary agreement as n real processes over sockets
     bca tables  - print the Table 1 / Table 2 reproductions
     bca attack  - replay the Appendix A adaptive liveness attacks
     bca acs     - run the HoneyBadger-style common-subset demo
     bca lint    - static determinism / protocol-invariant checks over the sources

   All runs are deterministic in the --seed argument. *)

open Cmdliner
module Value = Bca_util.Value
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Summary = Bca_util.Summary
module Monitor = Bca_netsim.Monitor
module Async = Bca_netsim.Async_exec
module Cluster = Bca_transport.Cluster

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

(* ------------------------------------------------------------------ *)
(* bca run                                                              *)
(* ------------------------------------------------------------------ *)

let spec_of_string s eps = Cluster.parse_stack ~eps s

(* The same execution [Aba.run ~seed] performs (same RNG stream, so same
   delivery schedule and results), but with the runtime invariant monitor
   attached: [bca run] must exit non-zero - with a clear message - if the
   monitor detects disagreement, not just print a wrong answer. *)
let run_monitored ~seed spec ~cfg ~inputs =
  let driver =
    { Aba.drive =
        (fun ~coin ~wire:_ exec parties ->
          let n = Async.n exec in
          let monitor =
            Monitor.create ~n ~inputs
              ~decision:(fun p -> parties.(p).Aba.committed ())
              ~commit_round:(fun p -> parties.(p).Aba.commit_round ())
              ?coin_value:
                (if Aba.spec_commits_on_coin spec then
                   Some (fun ~round ~pid -> Bca_coin.Coin.value_for coin ~round ~pid)
                 else None)
              ()
          in
          Monitor.attach monitor exec;
          let rng = Bca_util.Rng.create seed in
          let res =
            match Async.run exec (Async.random_scheduler rng) with
            | `All_terminated ->
              let commits =
                Array.map
                  (fun (p : Aba.party) ->
                    match p.committed () with
                    | Some v -> v
                    | None -> invalid_arg "terminated without commit")
                  parties
              in
              let value = commits.(0) in
              if Array.for_all (Value.equal value) commits then
                Ok
                  { Aba.value;
                    commits;
                    deliveries = Async.deliveries exec;
                    rounds =
                      Array.fold_left (fun acc (p : Aba.party) -> max acc (p.round ())) 0 parties }
              else Error "agreement violated (bug)"
            | `Quiescent -> Error "network quiesced before termination (liveness bug)"
            | `Limit -> Error "delivery limit reached before termination"
            | `Stopped -> Error "scheduler stopped"
          in
          Monitor.final_check monitor;
          (res, Monitor.violations monitor))
    }
  in
  Aba.run_custom ~seed spec ~cfg ~inputs ~driver

let run_cmd =
  let stack =
    Arg.(
      value
      & opt string "byz-strong"
      & info [ "stack" ]
          ~doc:
            "Protocol stack: crash-strong | crash-weak | crash-local | byz-strong | \
             byz-weak | byz-tsig.")
  in
  let eps =
    Arg.(value & opt float 0.25 & info [ "eps" ] ~doc:"Coin goodness for the weak stacks.")
  in
  let inputs =
    Arg.(
      value
      & opt string "0110"
      & info [ "inputs" ] ~docv:"BITS" ~doc:"One input bit per party; length fixes n.")
  in
  let t_arg =
    Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Fault bound (default: maximal).")
  in
  let action stack eps inputs t_opt seed =
    match spec_of_string stack eps with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok spec ->
      let n = String.length inputs in
      let byz = match spec with Aba.Crash_strong | Aba.Crash_weak _ | Aba.Crash_local -> false | _ -> true in
      let t =
        match t_opt with Some t -> t | None -> if byz then (n - 1) / 3 else (n - 1) / 2
      in
      let cfg = Types.cfg ~n ~t in
      let input_arr =
        Array.init n (fun i -> Value.of_bool (inputs.[i] = '1'))
      in
      (match run_monitored ~seed spec ~cfg ~inputs:input_arr with
      | Error e ->
        prerr_endline e;
        exit 1
      | Ok (res, violations) ->
        List.iter
          (fun v -> Format.eprintf "MONITOR: %a@." Monitor.pp_violation v)
          violations;
        (match res with
        | Ok r ->
          Format.printf "stack:      %a (n=%d, t=%d)@." Aba.pp_spec spec n t;
          Format.printf "inputs:     %s@." inputs;
          Format.printf "agreed:     %a@." Value.pp r.Aba.value;
          Format.printf "messages:   %d@." r.Aba.deliveries;
          Format.printf "coin rounds:%d@." r.Aba.rounds;
          if violations <> [] then begin
            Format.eprintf "bca run: the invariant monitor flagged %d violation(s) above@."
              (List.length violations);
            exit 2
          end
        | Error e ->
          prerr_endline e;
          exit (if violations <> [] then 2 else 1)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one binary agreement over a simulated honest cluster.")
    Term.(const action $ stack $ eps $ inputs $ t_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca cluster                                                          *)
(* ------------------------------------------------------------------ *)

let cluster_cmd =
  let stack =
    Arg.(
      value
      & opt string "byz-strong"
      & info [ "stack" ]
          ~doc:
            "Protocol stack: crash-strong | crash-weak | crash-local | byz-strong | \
             byz-weak | byz-tsig.")
  in
  let eps =
    Arg.(value & opt float 0.25 & info [ "eps" ] ~doc:"Coin goodness for the weak stacks.")
  in
  let inputs =
    Arg.(
      value
      & opt string "0110"
      & info [ "inputs" ] ~docv:"BITS" ~doc:"One input bit per party; length fixes n.")
  in
  let t_arg =
    Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Fault bound (default: maximal).")
  in
  let transport =
    Arg.(
      value & opt string "unix"
      & info [ "transport" ] ~doc:"unix (Unix-domain sockets) or tcp (loopback TCP).")
  in
  let timeout =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~doc:"Seconds before surviving node processes are killed.")
  in
  let node_exe_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "node-exe" ]
          ~doc:
            "Path to the bca_node executable (default: next to this binary; the BCA_NODE \
             environment variable overrides).")
  in
  let instances_arg =
    Arg.(
      value & opt int 1
      & info [ "instances" ] ~docv:"B"
          ~doc:
            "Concurrent agreement instances per node (pipelined executor with frame \
             batching; inputs are derived from the seed, --inputs only fixes n).")
  in
  let batch_records_arg =
    Arg.(
      value & opt int 64
      & info [ "batch-records" ] ~doc:"Flush an open batch at this many records.")
  in
  let batch_bytes_arg =
    Arg.(
      value & opt int (32 * 1024)
      & info [ "batch-bytes" ] ~doc:"... or when its record region reaches this size.")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the crash-recovery supervisor: nodes keep durable WALs and a dead node is \
             restarted with --recover (single-instance mode only).")
  in
  let wal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the per-node write-ahead logs (default with --supervise: a fresh \
             temporary directory, removed afterwards).")
  in
  let kill_at_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill-at" ] ~docv:"PID:TRIGGER"
          ~doc:
            "With --supervise: SIGKILL node PID at TRIGGER (coin:R or round:R), e.g. \
             2:coin:1 kills node 2 at its first access of round 1's coin.")
  in
  let max_restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-restarts" ] ~doc:"With --supervise: restart budget per node.")
  in
  let rsm_arg =
    Arg.(
      value & flag
      & info [ "rsm" ]
          ~doc:
            "Run the pipelined replicated log instead of a binary agreement: each node \
             commits the same fixed-length transaction log (--inputs only fixes n; the \
             workload is derived from the seed).")
  in
  let rsm_epochs_arg =
    Arg.(value & opt int 6 & info [ "rsm-epochs" ] ~doc:"With --rsm: log length in epochs.")
  in
  let rsm_window_arg =
    Arg.(
      value & opt int 2
      & info [ "rsm-window" ] ~doc:"With --rsm: concurrent in-flight epochs.")
  in
  let rsm_txs_arg =
    Arg.(
      value & opt int 4
      & info [ "rsm-txs" ] ~doc:"With --rsm: derived transactions per replica.")
  in
  let action stack eps inputs t_opt transport timeout node_exe seed instances batch_records
      batch_bytes supervise wal_dir kill_at max_restarts rsm rsm_epochs rsm_window rsm_txs =
    match spec_of_string stack eps with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok spec ->
      let n = String.length inputs in
      let byz =
        match spec with Aba.Crash_strong | Aba.Crash_weak _ | Aba.Crash_local -> false | _ -> true
      in
      let t =
        match t_opt with Some t -> t | None -> if byz then (n - 1) / 3 else (n - 1) / 2
      in
      let cfg = Types.cfg ~n ~t in
      let input_arr = Array.init n (fun i -> Value.of_bool (inputs.[i] = '1')) in
      let transport =
        match transport with
        | "unix" -> `Unix
        | "tcp" -> `Tcp
        | other ->
          Printf.eprintf "unknown transport %S (expected unix or tcp)\n" other;
          exit 1
      in
      let node_exe =
        match node_exe with
        | Some p -> p
        | None -> (
          match Sys.getenv_opt "BCA_NODE" with
          | Some p -> p
          | None -> Filename.concat (Filename.dirname Sys.executable_name) "bca_node.exe")
      in
      if not (Sys.file_exists node_exe) then begin
        Printf.eprintf "node executable %s not found (build it, or pass --node-exe / BCA_NODE)\n"
          node_exe;
        exit 1
      end;
      let over = match transport with `Unix -> "unix sockets" | `Tcp -> "tcp" in
      let fail msg =
        prerr_endline msg;
        exit 1
      in
      let job, what =
        if rsm then begin
          if supervise || instances > 1 then fail "--rsm excludes --supervise and --instances";
          ( Cluster.Rsm_log
              { epochs = rsm_epochs;
                window = rsm_window;
                batch = { Bca_rsm.Rsm.max_txs = 64; max_bytes = 64 * 1024 };
                txs_per_node = rsm_txs;
                tx_bytes = 32 },
            Printf.sprintf "replicated log, window %d, %d txs per replica" rsm_window rsm_txs )
        end
        else if instances > 1 then begin
          if supervise then fail "--supervise requires the single-instance executor";
          match
            Bca_transport.Batcher.policy ~max_records:batch_records ~max_bytes:batch_bytes ()
          with
          | policy ->
            ( Cluster.Aba_many { spec; instances; policy },
              Format.asprintf "%a, %d instances (inputs derived from seed %Ld)" Aba.pp_spec spec
                instances seed )
          | exception Invalid_argument e -> fail e
        end
        else
          ( Cluster.Aba_one { spec; inputs = input_arr },
            Format.asprintf "%a, inputs %s" Aba.pp_spec spec inputs )
      in
      let kill_at =
        Option.map
          (fun s ->
            match String.index_opt s ':' with
            | Some i when int_of_string_opt (String.sub s 0 i) <> None ->
              (int_of_string (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
            | _ -> fail "bad --kill-at (expected PID:coin:R or PID:round:R)")
          kill_at
      in
      (* supervision runs over per-node WALs: --wal-dir, or a fresh
         temporary directory removed afterwards *)
      let wal_dir, cleanup =
        match (supervise, wal_dir) with
        | false, _ -> (None, fun () -> ())
        | true, Some dir -> (Some dir, fun () -> ())
        | true, None ->
          let dir =
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "bca-wal-%d" (Unix.getpid ()))
          in
          Unix.mkdir dir 0o700;
          ( Some dir,
            fun () ->
              (match Sys.readdir dir with
              | entries ->
                Array.iter
                  (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
                  entries
              | exception Sys_error _ -> ());
              try Unix.rmdir dir with Unix.Unix_error _ -> () )
      in
      match
        Fun.protect ~finally:cleanup (fun () ->
            Cluster.spawn ~timeout_s:timeout ?wal_dir ~max_restarts ?kill_at ~node_exe ~cfg
              ~seed ~transport job)
      with
      | Ok r ->
        Format.printf "cluster:    %s over %s (n=%d processes, t=%d)@." what over n t;
        Format.printf "agreed:     %s@." (Cluster.key_to_string r.Cluster.c_key);
        if Array.length r.Cluster.c_rounds > 0 then
          Format.printf "rounds:     %s@."
            (String.concat " " (Array.to_list (Array.map string_of_int r.Cluster.c_rounds)));
        Format.printf "traffic:    %d frames, %d bytes (%d words)%s@." r.Cluster.c_stats.frames
          r.Cluster.c_stats.bytes r.Cluster.c_stats.words
          (if r.Cluster.c_batches > 0 then
             Printf.sprintf ", %d batches carrying %d records" r.Cluster.c_batches
               r.Cluster.c_records
           else "");
        if Option.is_some wal_dir then begin
          Format.printf "restarts:   %d (wal bytes: %d)@." r.Cluster.c_restarts
            r.Cluster.c_wal_bytes;
          List.iter
            (fun ri ->
              Format.printf "recovered:  node %d replayed %d records (%d bytes) in %.3f s@."
                ri.Cluster.ri_pid ri.Cluster.ri_records ri.Cluster.ri_wal_bytes
                ri.Cluster.ri_replay_s)
            r.Cluster.c_recoveries
        end
      | Error e -> fail e
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run one binary agreement as n real node processes exchanging wire frames over \
          Unix-domain or TCP sockets (with --instances B, a batched pipelined executor \
          runs B agreements per node over one endpoint pair; with --rsm, the pipelined \
          replicated log).")
    Term.(
      const action $ stack $ eps $ inputs $ t_arg $ transport $ timeout $ node_exe_arg
      $ seed_arg $ instances_arg $ batch_records_arg $ batch_bytes_arg $ supervise_arg
      $ wal_dir_arg $ kill_at_arg $ max_restarts_arg $ rsm_arg $ rsm_epochs_arg
      $ rsm_window_arg $ rsm_txs_arg)

(* ------------------------------------------------------------------ *)
(* bca loadgen                                                          *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Replicas.") in
  let t_arg =
    Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Fault bound (default: (n-1)/3).")
  in
  let transport_arg =
    Arg.(
      value & opt string "unix"
      & info [ "transport" ]
          ~doc:"loopback (in-memory hub), unix (Unix-domain sockets) or tcp (loopback TCP).")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"TX/S"
          ~doc:"Open-loop submission rate, cluster-wide (0: preload everything).")
  in
  let total_arg =
    Arg.(value & opt int 256 & info [ "total" ] ~doc:"Transactions to inject.")
  in
  let tx_bytes_arg =
    Arg.(value & opt int 64 & info [ "tx-bytes" ] ~doc:"Padded size of each transaction.")
  in
  let window_arg =
    Arg.(value & opt int 4 & info [ "window" ] ~doc:"Concurrent in-flight epochs.")
  in
  let batch_txs_arg =
    Arg.(value & opt int 64 & info [ "batch-txs" ] ~doc:"Proposal cut: max txs per batch.")
  in
  let batch_bytes_arg =
    Arg.(
      value & opt int (64 * 1024)
      & info [ "batch-bytes" ] ~doc:"... or at most this many payload bytes.")
  in
  let epochs_arg =
    Arg.(
      value & opt int 0
      & info [ "epochs" ]
          ~doc:"Log length (0: sized from the load - window + capacity + slack).")
  in
  let timeout_arg =
    Arg.(value & opt float 60. & info [ "timeout" ] ~doc:"Seconds before giving up.")
  in
  let hop_ms_arg =
    Arg.(
      value & opt float 0.
      & info [ "hop-ms" ]
          ~doc:
            "Emulated one-way network latency in milliseconds (netem-style; sockets \
             only).  Local sockets are microseconds away, so this is how pipelining \
             (window > 1) is made visible on one machine.")
  in
  let action n t_opt transport rate total tx_bytes window batch_txs batch_bytes epochs
      timeout hop_ms seed =
    let t = match t_opt with Some t -> t | None -> (n - 1) / 3 in
    let cfg = Types.cfg ~n ~t in
    let epochs =
      if epochs > 0 then epochs
      else window + (((total + (((n - t) * batch_txs) - 1)) / ((n - t) * batch_txs)) * 2) + 2
    in
    let batch = { Bca_rsm.Rsm.max_txs = batch_txs; max_bytes = batch_bytes } in
    let params = Bca_rsm.Rsm.mk_params ~cfg ~coin_seed:seed ~epochs ~window ~batch () in
    let load = { Cluster.lg_rate = rate; lg_total = total; lg_tx_bytes = tx_bytes } in
    let hop_s = hop_ms /. 1000. in
    let result =
      match transport with
      | "loopback" ->
        if hop_s > 0. then begin
          Printf.eprintf "--hop-ms applies to socket transports (unix, tcp) only\n";
          exit 1
        end;
        Cluster.run_rsm_loadgen_loopback ~seed ~timeout_s:timeout params ~load
      | "unix" ->
        Cluster.run_rsm_loadgen ~timeout_s:timeout ~hop_s params ~load ~transport:`Unix
      | "tcp" ->
        Cluster.run_rsm_loadgen ~timeout_s:timeout ~hop_s params ~load ~transport:`Tcp
      | other ->
        Printf.eprintf "unknown transport %S (expected loopback, unix or tcp)\n" other;
        exit 1
    in
    match result with
    | Ok r ->
      Format.printf "loadgen:    n=%d t=%d over %s%s, window %d, batch <= %d txs / %d B@."
        n t transport
        (if hop_ms > 0. then Printf.sprintf " (%.1f ms emulated hop)" hop_ms else "")
        window batch_txs batch_bytes;
      Format.printf "injected:   %d txs of %d B, %s@." total tx_bytes
        (if rate <= 0. then "preloaded" else Printf.sprintf "open-loop at %.0f tx/s" rate);
      Format.printf "committed:  %d txs in %d epochs, %.3f s to last commit@."
        r.Cluster.lr_committed r.Cluster.lr_epochs r.Cluster.lr_duration_s;
      Format.printf "throughput: %.1f tx/s@." r.Cluster.lr_tx_per_s;
      Format.printf "latency:    p50 %.2f ms, p99 %.2f ms (submit to commit at replica 0)@."
        r.Cluster.lr_p50_ms r.Cluster.lr_p99_ms;
      Format.printf "traffic:    %d frames, %d bytes, %d writes@." r.Cluster.lr_frames
        r.Cluster.lr_bytes r.Cluster.lr_writes;
      if r.Cluster.lr_committed < total then begin
        Format.printf "WARNING:    %d transactions missed the log (size it with --epochs)@."
          (total - r.Cluster.lr_committed);
        exit 1
      end
    | Error e ->
      prerr_endline e;
      exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive the pipelined replicated log with an open-loop transaction load (in one \
          process: in-memory hub or real unix/tcp sockets) and report committed-tx \
          throughput and submit-to-commit latency percentiles.")
    Term.(
      const action $ n_arg $ t_arg $ transport_arg $ rate_arg $ total_arg $ tx_bytes_arg
      $ window_arg $ batch_txs_arg $ batch_bytes_arg $ epochs_arg $ timeout_arg
      $ hop_ms_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca tables                                                           *)
(* ------------------------------------------------------------------ *)

let tables_cmd =
  let runs =
    Arg.(value & opt int 1000 & info [ "runs" ] ~doc:"Monte-Carlo runs per cell.")
  in
  let action runs seed =
    let fmt s = Printf.sprintf "%.2f ± %.2f" s.Summary.mean s.Summary.ci95 in
    let module T1 = Bca_experiments.Table1 in
    let module T2 = Bca_experiments.Table2 in
    Bca_util.Tablefmt.print
      ~header:[ "table"; "cell"; "paper"; "measured" ]
      [ [ "1"; "crash, strong coin"; "7"; fmt (T1.strong ~runs ~seed) ];
        [ "1"; "crash, weak e=1/4"; "16"; fmt (T1.weak ~eps:0.25 ~runs ~seed) ];
        [ "2"; "byz, strong t+1"; "17 (cp 15)"; fmt (T2.strong_t1 ~runs ~seed) ];
        [ "2"; "byz, strong 2t+1"; "13"; fmt (T2.strong_2t1 ~runs ~seed) ];
        [ "2"; "byz, weak e=1/4"; "30"; fmt (T2.weak_t1 ~eps:0.25 ~runs ~seed) ];
        [ "2"; "byz, tsig"; "9"; fmt (T2.tsig ~runs ~seed) ] ]
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's Table 1 and Table 2 cells.")
    Term.(const action $ runs $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca attack                                                           *)
(* ------------------------------------------------------------------ *)

let attack_cmd =
  let target =
    Arg.(value & opt string "cz" & info [ "target" ] ~doc:"cz (Cachin-Zanolini) or mmr.")
  in
  let degree =
    Arg.(
      value & opt string "t"
      & info [ "coin" ] ~doc:"Coin unpredictability: t (attack succeeds) or 2t (fails).")
  in
  let rounds = Arg.(value & opt int 30 & info [ "rounds" ] ~doc:"Attack rounds.") in
  let action target degree rounds seed =
    let deg = if degree = "2t" then `TwoT else `T in
    let first_commit, agreement, peeks =
      match target with
      | "mmr" ->
        let r = Bca_adversary.Mmr_attack.run ~degree:deg ~rounds ~seed in
        Bca_adversary.Mmr_attack.
          (r.first_commit_round, r.agreement_ok, r.peeks_denied)
      | _ ->
        let r = Bca_adversary.Cz_attack.run ~degree:deg ~rounds ~seed in
        Bca_adversary.Cz_attack.(r.first_commit_round, r.agreement_ok, r.peeks_denied)
    in
    Format.printf "target: %s, coin degree: %s@." target degree;
    (match first_commit with
    | None -> Format.printf "NO COMMIT in %d rounds: liveness violated@." rounds
    | Some r -> Format.printf "first commitment in round %d: attack failed@." r);
    Format.printf "safety kept: %b; coin peeks denied: %d@." agreement peeks
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Replay the Appendix A adaptive liveness attack.")
    Term.(const action $ target $ degree $ rounds $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca acs                                                              *)
(* ------------------------------------------------------------------ *)

let acs_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of replicas (>= 3t+1).") in
  let silent =
    Arg.(value & opt (some int) None & info [ "silent" ] ~doc:"Replica that never speaks.")
  in
  let action n silent seed =
    let t = (n - 1) / 3 in
    let cfg = Types.cfg ~n ~t in
    let params = { Bca_acs.Acs.cfg; coin_seed = Int64.add seed 7L } in
    let states = Array.make n None in
    let exec =
      Bca_netsim.Async_exec.create ~n ~make:(fun pid ->
          if Some pid = silent then (Bca_netsim.Node.silent, [])
          else begin
            let st, init =
              Bca_acs.Acs.create params ~me:pid ~proposal:(Printf.sprintf "batch-%d" pid)
            in
            states.(pid) <- Some st;
            (Bca_acs.Acs.node st, List.map (fun m -> Bca_netsim.Node.Broadcast m) init)
          end)
    in
    let rng = Bca_util.Rng.create seed in
    (match Bca_netsim.Async_exec.run exec (Bca_netsim.Async_exec.random_scheduler rng) with
    | `All_terminated -> Format.printf "ACS terminated (n=%d, t=%d)@." n t
    | _ -> Format.printf "ACS failed to terminate@.");
    Array.iteri
      (fun pid st ->
        match Option.bind st Bca_acs.Acs.output with
        | Some slots ->
          Format.printf "replica %d: {%s}@." pid
            (String.concat ", " (List.map (fun (j, _) -> string_of_int j) slots))
        | None -> if Some pid <> silent then Format.printf "replica %d: no output@." pid)
      states
  in
  Cmd.v
    (Cmd.info "acs" ~doc:"Run the HoneyBadger-style common subset on the paper's ABA.")
    Term.(const action $ n $ silent $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca trace                                                            *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let limit =
    Arg.(value & opt int 60 & info [ "limit" ] ~doc:"Deliveries to print before going quiet.")
  in
  let inputs =
    Arg.(value & opt string "0110" & info [ "inputs" ] ~docv:"BITS" ~doc:"Input bits (n=4).")
  in
  let action limit inputs seed =
    let module Stack = Bca_core.Aba.Byz_strong_stack in
    let n = 4 in
    let cfg = Types.cfg ~n ~t:1 in
    let coin =
      Bca_coin.Coin.create Bca_coin.Coin.Strong ~n ~degree:1 ~seed:(Int64.add seed 1L)
    in
    let params = { Stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
    let states = Array.make n None in
    let exec =
      Bca_netsim.Async_exec.create ~n ~make:(fun pid ->
          let st, init =
            Stack.create params ~me:pid ~input:(Value.of_bool (inputs.[pid] = '1'))
          in
          states.(pid) <- Some st;
          (Stack.node st, List.map (fun m -> Bca_netsim.Node.Broadcast m) init))
    in
    let count = ref 0 in
    Bca_netsim.Async_exec.set_observer exec (fun env ->
        incr count;
        if !count <= limit then
          Format.printf "%4d  d%-2d  %d -> %d  %a@." !count
            env.Bca_netsim.Async_exec.depth env.Bca_netsim.Async_exec.src
            env.Bca_netsim.Async_exec.dst Stack.pp_msg env.Bca_netsim.Async_exec.payload
        else if !count = limit + 1 then Format.printf "      ... (further deliveries elided)@.");
    let rng = Bca_util.Rng.create seed in
    (match Bca_netsim.Async_exec.run exec (Bca_netsim.Async_exec.random_scheduler rng) with
    | `All_terminated ->
      Format.printf "terminated after %d deliveries, critical path %d broadcasts@." !count
        (Bca_netsim.Async_exec.max_depth exec)
    | _ -> Format.printf "did not terminate@.");
    Array.iteri
      (fun pid st ->
        match Option.bind st Stack.committed with
        | Some v -> Format.printf "party %d committed %a@." pid Value.pp v
        | None -> ())
      states
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run ABA (n=4, byz/strong) and print the delivery-by-delivery transcript.")
    Term.(const action $ limit $ inputs $ seed_arg)

(* ------------------------------------------------------------------ *)
(* bca lint                                                             *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let paths =
    Arg.(
      value
      & pos_all string [ "lib" ]
      & info [] ~docv:"PATHS" ~doc:"Files or directories to lint (default: lib).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let flow =
    Arg.(
      value & flag
      & info [ "flow" ]
          ~doc:
            "Also run the interprocedural wire-taint analysis (rules wire-taint and \
             unbounded-alloc); findings carry a source -> call chain -> sink taint trace.")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"RULES"
          ~doc:
            "Comma-separated subset of rules to run (determinism, poly-compare, quorum, \
             total-decoding, wire-coverage; with --flow also wire-taint, unbounded-alloc).")
  in
  let action paths json flow rules =
    let module Lint = Bca_lint.Lint in
    let only = Option.map (String.split_on_char ',') rules in
    let flow = if flow then Some Bca_lint.Flow.pass else None in
    match Lint.run ~rules:Bca_lint.Rules.all ?flow ?only ~paths () with
    | report ->
      if json then print_string (Lint.to_json report)
      else Format.printf "%a" Lint.pp_text report;
      if Lint.has_errors report then exit 1
    | exception Invalid_argument e ->
      prerr_endline e;
      exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the sources for determinism, protocol-invariant and wire-coverage \
          violations; exits non-zero on any unsuppressed finding.")
    Term.(const action $ paths $ json $ flow $ rules)

(* ------------------------------------------------------------------ *)
(* bca verify                                                           *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let protocol =
    Arg.(
      value & opt string "bca-crash"
      & info [ "protocol" ]
          ~doc:
            "bca-crash (Algorithm 3), gbca-crash (Algorithm 5) or bca-byz (Algorithm 4, \
             bounded, n=4 with an injection-modelled Byzantine party).")
  in
  let inputs =
    Arg.(value & opt string "010" & info [ "inputs" ] ~docv:"BITS" ~doc:"Input bits; length = n.")
  in
  let crashes = Arg.(value & opt int 0 & info [ "crashes" ] ~doc:"Crash events to place.") in
  let cap =
    Arg.(
      value & opt int 300_000
      & info [ "max-configurations" ] ~doc:"Exploration bound (exhaustive below it).")
  in
  let action protocol inputs crashes cap =
    let n = String.length inputs in
    let t = (n - 1) / 2 in
    let input_arr = Array.init n (fun i -> Value.of_bool (inputs.[i] = '1')) in
    let verdict =
      match protocol with
      | "gbca-crash" ->
        Bca_modelcheck.Models.check_gbca_crash ~n ~t ~inputs:input_arr ~crashes
          ~max_configurations:cap ()
      | "bca-byz" ->
        let input_arr =
          if n = 4 then input_arr
          else Array.init 4 (fun i -> if i < n then input_arr.(i) else Value.V0)
        in
        Bca_modelcheck.Models.check_bca_byz ~inputs:input_arr ~max_configurations:cap ()
      | _ ->
        Bca_modelcheck.Models.check_bca_crash ~n ~t ~inputs:input_arr ~crashes
          ~max_configurations:cap ()
    in
    match verdict with
    | Bca_modelcheck.Modelcheck.Verified s ->
      Format.printf
        "VERIFIED: agreement, validity, termination and binding hold over %d reachable          configurations (%d terminal%s)@."
        s.Bca_modelcheck.Modelcheck.configurations s.Bca_modelcheck.Modelcheck.terminals
        (if s.Bca_modelcheck.Modelcheck.truncated then
           "; exploration TRUNCATED at the configuration cap"
         else "; exploration complete");
      Format.printf "%d edges explored, deepest choice sequence %d@.%a@."
        s.Bca_modelcheck.Modelcheck.edges s.Bca_modelcheck.Modelcheck.max_depth
        Bca_obs.Coverage.pp s.Bca_modelcheck.Modelcheck.coverage
    | Bca_modelcheck.Modelcheck.Violated reason ->
      Format.printf "VIOLATED: %s@." reason;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively model-check a crash protocol: every delivery order and crash           placement for the given inputs.")
    Term.(const action $ protocol $ inputs $ crashes $ cap)

(* ------------------------------------------------------------------ *)
(* bca fuzz                                                             *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module F = Bca_experiments.Fuzz_campaign in
  let stack =
    let names =
      String.concat ", " (List.map (fun tg -> tg.F.tg_name) F.all_targets)
    in
    Arg.(
      value & opt string "byz/strong"
      & info [ "stack" ] ~docv:"NAME" ~doc:(Printf.sprintf "Target stack: %s." names))
  in
  let trials =
    Arg.(value & opt int 256 & info [ "trials" ] ~docv:"N" ~doc:"Trial budget.")
  in
  let batch =
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc:"Trials per scheduler batch.")
  in
  let blind =
    Arg.(
      value & flag
      & info [ "blind" ] ~doc:"Undirected baseline: every plan drawn fresh, no corpus.")
  in
  let corpus_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE" ~doc:"Start from a saved corpus instead of the built-in seeds.")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-corpus" ] ~docv:"FILE" ~doc:"Write the final corpus (guided mode).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "violation-trace" ] ~docv:"FILE"
          ~doc:"On a find, replay the violating trial and write its event stream as JSONL.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Domains for batch evaluation (default: auto).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the campaign report as JSON.") in
  let action stack trials batch blind corpus_in corpus_out trace_out domains json seed =
    let target =
      match F.find_target stack with
      | Ok tg -> tg
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let corpus =
      match corpus_in with
      | None -> None
      | Some path -> (
        match F.load_corpus path with
        | Ok c -> Some c
        | Error e ->
          prerr_endline e;
          exit 1)
    in
    let mode = if blind then F.Blind else F.Guided in
    let c = F.run ?domains ~batch ?corpus ~mode ~target ~trials ~seed () in
    if json then begin
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf
           "{ \"target\": %S, \"mode\": %S, \"trials\": %d, \"committed\": %d, \"stalled\": \
            %d,\n  \"deliveries\": %d, \"corpus\": %d, \"coverage\": %s,\n  \"found\": "
           c.F.c_target (F.mode_name c.F.c_mode) c.F.c_trials c.F.c_committed c.F.c_stalled
           c.F.c_deliveries (List.length c.F.c_corpus)
           (Bca_obs.Coverage.to_json c.F.c_coverage));
      (match c.F.c_found with
      | None -> Buffer.add_string buf "null"
      | Some f ->
        Buffer.add_string buf
          (Printf.sprintf
             "{ \"trial\": %d, \"name\": %S, \"seed\": \"0x%Lx\", \"plan\": %S, \
              \"violations\": [%s] }"
             f.F.f_trial f.F.f_name f.F.f_seed
             (Bca_adversary.Chaos.plan_to_string f.F.f_plan)
             (String.concat ", "
                (List.map
                   (fun v -> Printf.sprintf "%S" (Format.asprintf "%a" Monitor.pp_violation v))
                   f.F.f_violations))));
      Buffer.add_string buf " }\n";
      print_string (Buffer.contents buf)
    end
    else Format.printf "%a@." F.pp_campaign c;
    (match corpus_out with
    | Some path when c.F.c_corpus <> [] -> F.save_corpus path c.F.c_corpus
    | Some path -> Format.eprintf "%s: empty corpus (blind mode?), not written@." path
    | None -> ());
    match c.F.c_found with
    | None -> ()
    | Some f ->
      (match trace_out with
      | None -> ()
      | Some path ->
        let cap = Bca_obs.Trace.create () in
        let (_ : F.trial) =
          F.replay ~capture:cap ~target ~plan:f.F.f_plan ~seed:f.F.f_seed ()
        in
        let oc = open_out path in
        Bca_obs.Trace.output oc cap;
        close_out oc;
        Format.printf "violating run replayed to %s (%d events)@." path
          (Bca_obs.Trace.length cap));
      exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided adversary search: mutate chaos plans against a protocol stack,      keeping plans that reach new coverage; exits 2 if a safety violation is found.")
    Term.(
      const action $ stack $ trials $ batch $ blind $ corpus_in $ corpus_out $ trace_out
      $ domains $ json $ seed_arg)

let () =
  let info =
    Cmd.info "bca" ~version:Version.v
      ~doc:"Binding Crusader Agreement: adaptively secure asynchronous binary agreement."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; cluster_cmd; loadgen_cmd; tables_cmd; attack_cmd; acs_cmd; verify_cmd; trace_cmd;
            lint_cmd; fuzz_cmd ]))
