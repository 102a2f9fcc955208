(* Throughput harness for the socket hot paths: decisions/sec of the
   batched multi-instance ABA cluster and committed-tx/s of the windowed
   replicated log, each with its CI floor.

   Usage: main.exe [cluster|rsm|all] [--runs K] [--seed S] [--json PATH] [--floor DPS]
   Default: all.  --json PATH (default BENCH_netsim.json) receives the
   "cluster" and "rsm" results.  --floor DPS fails the process when the
   tcp batched cluster mode decides below DPS decisions/sec; the rsm
   section always gates (window 4 strictly above window 1 at every point,
   plus an absolute tcp floor).  --runs scales the rsm workload.

   The paper's tables and the Appendix A attacks are printed by
   [bca tables] and [bca attack]; the chaos, fuzz and recovery gates run
   under [dune runtest].

   Any section that raises prints the reproducing seed before the process
   exits non-zero: every number in the harness derives from --seed, so
   re-running with the printed value reproduces the failure exactly. *)

module Tablefmt = Bca_util.Tablefmt
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Cluster = Bca_transport.Cluster

let opt_runs : int option ref = ref None

let opt_seed : int64 option ref = ref None

let opt_json : string option ref = ref None

let opt_floor : float option ref = ref None

let root_seed () = match !opt_seed with Some s -> s | None -> 20260706L

let json_path () = match !opt_json with Some p -> p | None -> "BENCH_netsim.json"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* One cluster-throughput measurement: [cl_instances] byz-strong decisions
   over real sockets in one process, one row per (transport, wire mode).
   "per-message" runs the decisions sequentially, one frame per protocol
   message, one write per frame - the seed's wire path.  "pipelined" runs
   them concurrently over one endpoint set but still frame-per-message;
   "batched" adds frame batching and coalesced writes - the full hot
   path.  decisions/sec across the modes is the tentpole figure of merit. *)
type cluster_row = {
  cl_transport : string;
  cl_mode : string;
  cl_n : int;
  cl_t : int;
  cl_instances : int;
  cl_wall_s : float;
  cl_frames : int;
  cl_bytes : int;
  cl_writes : int;
  cl_batches : int;
  cl_records : int;
  cl_max_occupancy : int;
  cl_alloc_words : float;
}

let cluster_dps row =
  float_of_int row.cl_instances
  /. (if row.cl_wall_s > 0.0 then row.cl_wall_s else epsilon_float)

let cluster_acc : cluster_row list ref = ref []

(* RSM loadgen rows: committed-tx throughput of the windowed log at each
   (transport, window, batch) point, plus the pipelining-gate verdicts. *)
type rsm_row = {
  rs_transport : string;
  rs_window : int;
  rs_batch_txs : int;
  rs_total : int;
  rs_tx_bytes : int;
  rs_hop_ms : float;
  rs_r : Cluster.rsm_load_result;
}

type rsm_gate = {
  rg_transport : string;
  rg_batch_txs : int;
  rg_w1_tx_s : float;  (* tx/s at window 1 *)
  rg_wn_tx_s : float;  (* tx/s at the deep window *)
  rg_pass : bool;
}

let rsm_acc : rsm_row list ref = ref []

let rsm_gate_acc : rsm_gate list ref = ref []

(* Absolute CI floor on the best TCP point, deliberately far below the
   measured rate (hundreds of tx/s on an idle machine) so only a real
   regression trips it. *)
let rsm_floor_tx_s = 25.0

let section_failed = ref false

(* ------------------------------------------------------------------ *)
(* Cluster throughput: the batched socket hot path vs its baselines.    *)
(* ------------------------------------------------------------------ *)

let cluster_bench () =
  let seed = root_seed () in
  let instances = 64 in
  let cfg = Types.cfg ~n:4 ~t:1 in
  let spec = Aba.Byz_strong in
  section
    (Printf.sprintf
       "Cluster throughput - %d byz-strong decisions, n=4 endpoints over real sockets"
       instances);
  let measure ~transport ~mode =
    let tname = match transport with `Unix -> "unix" | `Tcp -> "tcp" in
    let mname =
      match mode with
      | `Per_message -> "per-message"
      | `Pipelined -> "pipelined"
      | `Batched -> "batched"
    in
    let frames = ref 0 and bytes = ref 0 and writes = ref 0 in
    let batches = ref 0 and records = ref 0 and occ = ref 0 in
    let add (r : Cluster.inproc_result) =
      frames := !frames + r.Cluster.ir_frames;
      bytes := !bytes + r.Cluster.ir_bytes;
      writes := !writes + r.Cluster.ir_writes;
      batches := !batches + r.Cluster.ir_batches;
      records := !records + r.Cluster.ir_records;
      occ := max !occ r.Cluster.ir_max_occupancy
    in
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    (match mode with
    | `Per_message ->
      (* the seed's path: one decision at a time, fresh endpoints each,
         one frame per message, one write per frame.  Seeded so decision k
         is exactly instance k of the concurrent modes. *)
      for k = 0 to instances - 1 do
        let s = if k = 0 then seed else Cluster.instance_seed ~seed (k - 1) in
        match
          Cluster.run_inproc_cluster ~seed:s ~policy:Bca_transport.Batcher.immediate
            ~coalesce:false ~timeout_s:60. spec ~cfg ~instances:1 ~transport
        with
        | Ok r -> add r
        | Error e ->
          failwith (Printf.sprintf "cluster (%s, %s, decision %d): %s" tname mname k e)
      done
    | `Pipelined | `Batched -> (
      let policy =
        match mode with `Pipelined -> Some Bca_transport.Batcher.immediate | _ -> None
      in
      let coalesce = (match mode with `Pipelined -> false | _ -> true) in
      match
        Cluster.run_inproc_cluster ~seed ?policy ~coalesce ~timeout_s:120. spec ~cfg
          ~instances ~transport
      with
      | Ok r -> add r
      | Error e -> failwith (Printf.sprintf "cluster (%s, %s): %s" tname mname e)));
    let wall = Unix.gettimeofday () -. t0 in
    let alloc = (Gc.allocated_bytes () -. a0) /. 8.0 in
    { cl_transport = tname;
      cl_mode = mname;
      cl_n = cfg.Types.n;
      cl_t = cfg.Types.t;
      cl_instances = instances;
      cl_wall_s = wall;
      cl_frames = !frames;
      cl_bytes = !bytes;
      cl_writes = !writes;
      cl_batches = !batches;
      cl_records = !records;
      cl_max_occupancy = !occ;
      cl_alloc_words = alloc }
  in
  let rows =
    List.concat_map
      (fun transport ->
        List.map (fun mode -> measure ~transport ~mode) [ `Per_message; `Pipelined; `Batched ])
      [ `Unix; `Tcp ]
  in
  Tablefmt.print
    ~header:
      [ "transport"; "mode"; "decisions"; "wall (s)"; "decisions/sec"; "frames"; "bytes";
        "writes"; "max occ"; "Mwords alloc" ]
    (List.map
       (fun c ->
         [ c.cl_transport; c.cl_mode; string_of_int c.cl_instances;
           Printf.sprintf "%.4f" c.cl_wall_s;
           Printf.sprintf "%.0f" (cluster_dps c);
           string_of_int c.cl_frames; string_of_int c.cl_bytes; string_of_int c.cl_writes;
           string_of_int c.cl_max_occupancy;
           Printf.sprintf "%.2f" (c.cl_alloc_words /. 1e6) ])
       rows);
  let find tname mname =
    List.find_opt (fun c -> c.cl_transport = tname && c.cl_mode = mname) rows
  in
  List.iter
    (fun tname ->
      match (find tname "per-message", find tname "batched") with
      | Some base, Some batched ->
        Printf.printf
          "%s: batched hot path decides %.1fx faster than the per-message baseline\n\
          \     (%.1f vs %.1f decisions/sec; %.1fx fewer frames, %.1fx fewer bytes, %.1fx \
           fewer writes)\n"
          tname
          (cluster_dps batched /. cluster_dps base)
          (cluster_dps batched) (cluster_dps base)
          (float_of_int base.cl_frames /. float_of_int (max 1 batched.cl_frames))
          (float_of_int base.cl_bytes /. float_of_int (max 1 batched.cl_bytes))
          (float_of_int base.cl_writes /. float_of_int (max 1 batched.cl_writes))
      | _ -> ())
    [ "unix"; "tcp" ];
  (match !opt_floor with
  | None -> ()
  | Some floor -> (
    match find "tcp" "batched" with
    | Some batched when cluster_dps batched < floor ->
      Printf.eprintf "cluster throughput FLOOR VIOLATED: tcp batched %.1f decisions/sec < %.1f\n"
        (cluster_dps batched) floor;
      section_failed := true
    | Some batched ->
      Printf.printf "(floor ok: tcp batched %.1f >= %.1f decisions/sec)\n" (cluster_dps batched)
        floor
    | None -> ()));
  cluster_acc := rows

(* ------------------------------------------------------------------ *)
(* RSM loadgen: committed-tx throughput of the windowed log.            *)
(* ------------------------------------------------------------------ *)

(* Preload the whole workload and run the RSM to its last commit over
   loopback unix-domain sockets and over TCP, at window depths 1 and 4
   and batch caps 8 and 64.  Epochs are sized as in
   [bca loadgen --epochs 0]: the first [window] epochs cut their batches
   before any submission lands, capacity doubles for ACS-excluded
   re-queues, plus two epochs of slack.

   Local sockets are microseconds away, so a raw run is CPU-bound and a
   deep window only adds window-fill epochs.  Pipelining pays when the
   per-epoch round trips dominate, so every point runs under an emulated
   2 ms one-way hop ([hop_s], netem-style) - that is the regime the
   window exists for, and there window 4 must beat window 1 strictly at
   every (transport, batch) point or the section fails.  The workload is
   sized to span at least three tx-bearing epochs at the largest batch:
   a load that fits one epoch gives both windows the same critical path
   (window-fill epochs commit concurrently) and the comparison would be
   a coin flip. *)
let rsm_windows = (1, 4)

let rsm_batches = [ 8; 64 ]

let rsm_hop_ms = 2.0

let rsm_bench () =
  let seed = root_seed () in
  let cfg = Types.cfg ~n:4 ~t:1 in
  let min_total =
    3 * (cfg.Types.n - cfg.Types.t)
    * List.fold_left (fun a b -> max a b) 1 rsm_batches
  in
  let total =
    match !opt_runs with
    | Some r -> max min_total (min (8 * r) (2 * min_total))
    | None -> min_total
  in
  let tx_bytes = 48 in
  section
    (Printf.sprintf
       "RSM loadgen: windowed log, %d preloaded txs of %d B, %.0f ms emulated hop \
        (n=4, t=1)"
       total tx_bytes rsm_hop_ms);
  let w1, wn = rsm_windows in
  let transports = [ (`Unix, "unix"); (`Tcp, "tcp") ] in
  let run ~transport ~name ~window ~batch_txs =
    let cap = (cfg.Types.n - cfg.Types.t) * batch_txs in
    let epochs = window + (((total + cap - 1) / cap) * 2) + 2 in
    let params =
      Bca_rsm.Rsm.mk_params ~cfg ~coin_seed:seed ~epochs ~window
        ~batch:{ Bca_rsm.Rsm.max_txs = batch_txs; max_bytes = 64 * 1024 }
        ()
    in
    let load = { Cluster.lg_rate = 0.; lg_total = total; lg_tx_bytes = tx_bytes } in
    let res =
      Cluster.run_rsm_loadgen ~timeout_s:120. ~hop_s:(rsm_hop_ms /. 1000.) params ~load
        ~transport
    in
    match res with
    | Error e ->
      failwith (Printf.sprintf "rsm (%s, w=%d, b=%d): %s" name window batch_txs e)
    | Ok r ->
      (* a shortfall is a liveness bug, not a slow run: epochs are sized
         so every preloaded transaction fits with slack *)
      if r.Cluster.lr_committed < total then
        failwith
          (Printf.sprintf "rsm (%s, w=%d, b=%d): only %d/%d txs committed" name window
             batch_txs r.Cluster.lr_committed total);
      { rs_transport = name;
        rs_window = window;
        rs_batch_txs = batch_txs;
        rs_total = total;
        rs_tx_bytes = tx_bytes;
        rs_hop_ms = rsm_hop_ms;
        rs_r = r }
  in
  let rows =
    List.concat_map
      (fun (transport, name) ->
        List.concat_map
          (fun window ->
            List.map (fun batch_txs -> run ~transport ~name ~window ~batch_txs)
              rsm_batches)
          [ w1; wn ])
      transports
  in
  Tablefmt.print
    ~header:
      [ "transport"; "window"; "batch"; "epochs"; "committed"; "wall (s)"; "tx/sec";
        "p50 (ms)"; "p99 (ms)"; "frames" ]
    (List.map
       (fun row ->
         let r = row.rs_r in
         [ row.rs_transport; string_of_int row.rs_window; string_of_int row.rs_batch_txs;
           string_of_int r.Cluster.lr_epochs; string_of_int r.Cluster.lr_committed;
           Printf.sprintf "%.3f" r.Cluster.lr_duration_s;
           Printf.sprintf "%.1f" r.Cluster.lr_tx_per_s;
           Printf.sprintf "%.2f" r.Cluster.lr_p50_ms;
           Printf.sprintf "%.2f" r.Cluster.lr_p99_ms; string_of_int r.Cluster.lr_frames ])
       rows);
  let tx_s transport window batch_txs =
    List.find_map
      (fun row ->
        if row.rs_transport = transport && row.rs_window = window
           && row.rs_batch_txs = batch_txs
        then Some row.rs_r.Cluster.lr_tx_per_s
        else None)
      rows
  in
  (* the pipelining gate: under the emulated hop the deep window must win
     at every point *)
  let gates =
    List.concat_map
      (fun (_, name) ->
        List.filter_map
          (fun batch_txs ->
            match (tx_s name w1 batch_txs, tx_s name wn batch_txs) with
            | Some slow, Some fast ->
              let pass = fast > slow in
              if pass then
                Printf.printf
                  "(gate ok: %s, batch %d: window %d at %.1f tx/s > window %d at %.1f)\n"
                  name batch_txs wn fast w1 slow
              else begin
                section_failed := true;
                Printf.eprintf
                  "RSM GATE VIOLATED: %s, batch %d: window %d at %.1f tx/s <= window %d \
                   at %.1f\n"
                  name batch_txs wn fast w1 slow
              end;
              Some
                { rg_transport = name; rg_batch_txs = batch_txs; rg_w1_tx_s = slow;
                  rg_wn_tx_s = fast; rg_pass = pass }
            | _ -> None)
          rsm_batches)
      transports
  in
  let best =
    List.fold_left (fun acc row -> Float.max acc row.rs_r.Cluster.lr_tx_per_s) 0.
      (List.filter (fun row -> row.rs_transport = "tcp") rows)
  in
  if best < rsm_floor_tx_s then begin
    section_failed := true;
    Printf.eprintf "RSM FLOOR VIOLATED: best tcp point %.1f tx/s < floor %.1f\n" best
      rsm_floor_tx_s
  end
  else Printf.printf "(floor ok: best tcp point %.1f tx/s >= %.1f)\n" best rsm_floor_tx_s;
  rsm_acc := rows;
  rsm_gate_acc := gates

let write_json path ~cluster ~rsm ~rsm_gate =
  let buf = Buffer.create 1024 in
  (* one JSON object per line, comma-separated *)
  let items rows f =
    let last = List.length rows - 1 in
    List.iteri (fun i r -> Buffer.add_string buf (f r (if i = last then "" else ","))) rows
  in
  Buffer.add_string buf "{\n  \"cluster\": [\n";
  items cluster (fun c sep ->
      let per d = float_of_int d /. float_of_int (max 1 c.cl_instances) in
      Printf.sprintf
        "    {\"stack\": \"byz-strong\", \"transport\": %S, \"mode\": %S, \"n\": %d, \
         \"t\": %d, \"decisions\": %d, \"wall_s\": %.6f, \"decisions_per_sec\": %.1f, \
         \"frames\": %d, \"bytes\": %d, \"writes\": %d, \"batches\": %d, \
         \"records\": %d, \"max_occupancy\": %d, \"alloc_words\": %.0f, \
         \"frames_per_decision\": %.1f, \"bytes_per_decision\": %.1f}%s\n"
        c.cl_transport c.cl_mode c.cl_n c.cl_t c.cl_instances c.cl_wall_s (cluster_dps c)
        c.cl_frames c.cl_bytes c.cl_writes c.cl_batches c.cl_records c.cl_max_occupancy
        c.cl_alloc_words (per c.cl_frames) (per c.cl_bytes) sep);
  Buffer.add_string buf "  ],\n  \"rsm\": {\n    \"rows\": [\n";
  items rsm (fun row sep ->
      let r = row.rs_r in
      Printf.sprintf
        "      {\"transport\": %S, \"n\": 4, \"t\": 1, \"window\": %d, \
         \"batch_txs\": %d, \"txs\": %d, \"tx_bytes\": %d, \"hop_ms\": %.1f, \
         \"committed\": %d, \"epochs\": %d, \"wall_s\": %.6f, \"tx_per_s\": %.1f, \
         \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"frames\": %d, \"bytes\": %d, \
         \"writes\": %d}%s\n"
        row.rs_transport row.rs_window row.rs_batch_txs row.rs_total row.rs_tx_bytes
        row.rs_hop_ms r.Cluster.lr_committed r.Cluster.lr_epochs r.Cluster.lr_duration_s
        r.Cluster.lr_tx_per_s r.Cluster.lr_p50_ms r.Cluster.lr_p99_ms r.Cluster.lr_frames
        r.Cluster.lr_bytes r.Cluster.lr_writes sep);
  Buffer.add_string buf "    ],\n    \"gate\": [\n";
  items rsm_gate (fun g sep ->
      Printf.sprintf
        "      {\"transport\": %S, \"batch_txs\": %d, \"w1_tx_s\": %.1f, \
         \"wn_tx_s\": %.1f, \"pass\": %b}%s\n"
        g.rg_transport g.rg_batch_txs g.rg_w1_tx_s g.rg_wn_tx_s g.rg_pass sep);
  Buffer.add_string buf
    (Printf.sprintf "    ],\n    \"floor_tx_s\": %.1f\n  }\n}\n" rsm_floor_tx_s);
  (* any I/O failure here must fail the process: a benchmark run whose
     report silently went missing reads as a healthy run *)
  match
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf))
  with
  | () -> ()
  | exception Sys_error msg ->
    Printf.eprintf "cannot write throughput JSON to %S: %s\n" path msg;
    exit 1

let flush_json () =
  if !cluster_acc <> [] || !rsm_acc <> [] then begin
    let path = json_path () in
    write_json path ~cluster:!cluster_acc ~rsm:!rsm_acc ~rsm_gate:!rsm_gate_acc;
    Printf.printf "\n(throughput written to %s)\n" path
  end

let usage () =
  Printf.eprintf
    "usage: main.exe [cluster|rsm|all] [--runs K] [--seed S] [--json PATH] [--floor DPS]\n";
  exit 1

let parse_args () =
  let which = ref None in
  let rec go = function
    | [] -> ()
    | "--json" :: path :: rest ->
      opt_json := Some path;
      go rest
    | "--runs" :: k :: rest ->
      (match int_of_string_opt k with
      | Some k when k > 0 -> opt_runs := Some k
      | _ ->
        Printf.eprintf "--runs expects a positive integer, got %S\n" k;
        exit 1);
      go rest
    | "--seed" :: s :: rest ->
      (match Int64.of_string_opt s with
      | Some s -> opt_seed := Some s
      | None ->
        Printf.eprintf "--seed expects an integer, got %S\n" s;
        exit 1);
      go rest
    | "--floor" :: f :: rest ->
      (match float_of_string_opt f with
      | Some f when f > 0.0 -> opt_floor := Some f
      | _ ->
        Printf.eprintf "--floor expects a positive number (decisions/sec), got %S\n" f;
        exit 1);
      go rest
    | [ ("--json" | "--runs" | "--seed" | "--floor") ] -> usage ()
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" ->
      Printf.eprintf "unknown flag %S\n" arg;
      usage ()
    | arg :: rest ->
      (match !which with
      | None -> which := Some arg
      | Some _ -> usage ());
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match !which with None -> "all" | Some w -> w

(* Run one section; on any exception print the reproducing seed (the whole
   harness is a deterministic function of it) and keep going so the other
   section still reports, then fail the process at the end. *)
let run_section name f =
  try f ()
  with exn ->
    section_failed := true;
    (* without --runs the section used its own default: leave the flag out
       so the hint replays that default ([--runs 0] is rejected) *)
    Printf.eprintf "\nsection %s FAILED: %s\n(reproduce with: main.exe %s --seed %Ld%s)\n" name
      (Printexc.to_string exn) name (root_seed ())
      (match !opt_runs with Some r -> Printf.sprintf " --runs %d" r | None -> "")

let () =
  (match parse_args () with
  | "cluster" -> run_section "cluster" cluster_bench
  | "rsm" -> run_section "rsm" rsm_bench
  | "all" ->
    run_section "cluster" cluster_bench;
    run_section "rsm" rsm_bench
  | other ->
    Printf.eprintf "unknown section %S (cluster|rsm|all)\n" other;
    usage ());
  flush_json ();
  if !section_failed then exit 1
