(* The four ledger workloads.

   Each one has a set-up (input generation, warm-up, calibration), an
   untraced measurement through the product's public entry points, and a
   traced measurement through the bench-side drivers of [Traced].  An "op"
   is a decision (aba-b64), a committed transaction (log-sat, log-hop) or
   a delivery (sim-byz). *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Cluster = Bca_transport.Cluster
module Rsm = Bca_rsm.Rsm
module Value = Bca_util.Value

type size = Full | Smoke

type ctx = {
  seed : int64;
  size : size;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failures, newest first *)
  mutable epoch_rate : float;  (** log-hop: epochs/s measured by set-up *)
}

let now () = Float.of_int (Span.now_ns ()) *. 1e-9

let record ctx ~ok ~bad msg =
  ctx.attempted <- ctx.attempted + ok + bad;
  ctx.failed <- ctx.failed + bad;
  if bad > 0 && List.length ctx.errors < 5 then ctx.errors <- msg :: ctx.errors

(* [f i] for i = [first], [first + 1], ... until [budget_s] has passed;
   at least once. *)
let until_budget ~budget_s ~first f =
  let t0 = now () in
  let rec go i =
    f i;
    if now () -. t0 < budget_s then go (i + 1)
  in
  go first

(* What the untraced phase measured.  The tail percentile is p99 where it
   is steady from run to run, p95 on aba-b64 (see README.md). *)
type e2e = {
  ops : int;
  wall_s : float;
  ops_per_s : float;
  lat_p50_ms : float;
  lat_tail_ms : float;
  tail : string;  (** which percentile of which samples, for the report *)
}

(* What the traced phase measured (per-layer numbers live in [Span]). *)
type traced = { t_ops : int; t_wall_s : float; t_counters : Traced.counters }

type workload = {
  name : string;
  trace_k : int;  (** span sampling period of the traced run, see [Span] *)
  setup : ctx -> unit;
  measure : ctx -> budget_s:float -> e2e;
  trace : ctx -> budget_s:float -> traced;
}

(* Closed-loop summary of per-call samples (wall time, ops completed), in
   call order.  Throughput and the tail are medians over consecutive 1 s
   windows of call time - interference from outside the process during a
   few seconds moves a few windows, not the median - and the p50 is over
   all calls. *)
let closed_loop_e2e ~tail_q ~what samples =
  let windows = ref [] and cur = ref [] and win_t = ref 0. in
  let close () =
    if !cur <> [] then windows := !cur :: !windows;
    cur := [];
    win_t := 0.
  in
  List.iter
    (fun ((dt, _) as x) ->
      cur := x :: !cur;
      win_t := !win_t +. dt;
      if !win_t >= 1.0 then close ())
    samples;
  (* a trailing partial window counts only when it is the only one *)
  if !windows = [] then close ();
  let ops xs = List.fold_left (fun a (_, n) -> a + n) 0 xs in
  let time xs = List.fold_left (fun a (dt, _) -> a +. dt) 0. xs in
  let ms xs = Stats.sorted (Array.of_list (List.map (fun (dt, _) -> dt *. 1000.) xs)) in
  let per_window f = Stats.median (Array.of_list (List.map f !windows)) in
  { ops = ops samples;
    wall_s = time samples;
    ops_per_s = per_window (fun xs -> Float.of_int (ops xs) /. Float.max 1e-9 (time xs));
    lat_p50_ms = Stats.percentile (ms samples) 0.5;
    lat_tail_ms = per_window (fun xs -> Stats.percentile (ms xs) tail_q);
    tail =
      Printf.sprintf "p%.0f per 1 s window, median over %d windows of %d %s in all"
        (tail_q *. 100.) (List.length !windows) (List.length samples) what }

(* ---- aba-b64 ----------------------------------------------------------- *)

(* byz-strong, n=4, t=1: back-to-back in-process clusters of 64 concurrent
   instances on the batched, coalesced path over Unix-domain sockets (TCP
   would measure the kernel's TIME_WAIT port allocator after a few thousand
   fresh clusters, see README.md).  Closed loop: call [i] is seeded
   [instance_seed ~seed (64 * i)]. *)
let aba_cfg = Types.cfg ~n:4 ~t:1
let aba_instances = 64
let aba_warmup = function Full -> 20 | Smoke -> 1
let aba_call_seed ctx i = Cluster.instance_seed ~seed:ctx.seed (aba_instances * i)

(* Validity on unanimous instances; agreement is checked by the harness. *)
let aba_valid ~seed values =
  Array.length values = aba_instances
  && Array.for_all Fun.id
       (Array.mapi
          (fun k v ->
            let iv = Cluster.instance_inputs ~seed ~n:aba_cfg.Types.n k in
            (not (Array.for_all (Value.equal iv.(0)) iv)) || Value.equal v iv.(0))
          values)

(* One call: its wall time and the instances it decided. *)
let aba_call ctx i =
  let seed = aba_call_seed ctx i in
  let t0 = now () in
  let r =
    Cluster.run_inproc_cluster ~seed ~timeout_s:20. Aba.Byz_strong ~cfg:aba_cfg
      ~instances:aba_instances ~transport:`Unix
  in
  let dt = now () -. t0 in
  let fail msg =
    record ctx ~ok:0 ~bad:aba_instances (Printf.sprintf "aba call %d: %s" i msg);
    (dt, 0)
  in
  match r with
  | Ok r when aba_valid ~seed r.Cluster.ir_values ->
    record ctx ~ok:aba_instances ~bad:0 "";
    (dt, aba_instances)
  | Ok _ -> fail "validity violated"
  | Error e -> fail e

let aba_b64 =
  { name = "aba-b64";
    trace_k = 11;
    setup =
      (fun ctx ->
        for i = 0 to aba_warmup ctx.size - 1 do
          ignore (aba_call ctx i : float * int)
        done);
    measure =
      (fun ctx ~budget_s ->
        let samples = ref [] in
        until_budget ~budget_s ~first:(aba_warmup ctx.size) (fun i ->
            samples := aba_call ctx i :: !samples);
        closed_loop_e2e ~tail_q:0.95 ~what:"rounds" (List.rev !samples));
    trace =
      (fun ctx ~budget_s ->
        let c = Traced.counters () in
        let first = aba_warmup ctx.size in
        let decided = ref 0 and wall = ref 0. in
        until_budget ~budget_s ~first (fun i ->
            Span.recording := i = first;
            let t0 = now () in
            let r =
              Traced.aba_cluster c ~seed:(aba_call_seed ctx i) ~instances:aba_instances
                ~timeout_s:20.
            in
            wall := !wall +. (now () -. t0);
            match r with
            | Ok ok ->
              decided := !decided + ok;
              record ctx ~ok ~bad:(aba_instances - ok)
                (Printf.sprintf "traced aba call %d: undecided or invalid" i)
            | Error e ->
              record ctx ~ok:0 ~bad:aba_instances (Printf.sprintf "traced aba call %d: %s" i e));
        Span.recording := false;
        { t_ops = !decided; t_wall_s = !wall; t_counters = c }) }

(* ---- log-sat / log-hop ------------------------------------------------- *)

let log_cfg = Types.cfg ~n:4 ~t:1
let log_window = 4
let log_batch_txs = 64
let log_tx_bytes = 64

let log_params ~coin_seed ~epochs =
  Rsm.mk_params ~cfg:log_cfg ~coin_seed ~epochs ~window:log_window
    ~batch:{ Rsm.max_txs = log_batch_txs; max_bytes = 64 * 1024 }
    ()

(* Record a loadgen outcome: every injected transaction must commit. *)
let log_record ctx ~label ~total = function
  | Ok (r : Cluster.rsm_load_result) ->
    let ok = min total r.Cluster.lr_committed in
    record ctx ~ok ~bad:(total - ok) (Printf.sprintf "%s: %d/%d txs committed" label ok total);
    ok = total
  | Error e ->
    record ctx ~ok:0 ~bad:total (Printf.sprintf "%s: %s" label e);
    false

let traced_log ctx ~label ~total r =
  match r with
  | Ok ok ->
    record ctx ~ok ~bad:(total - ok) (Printf.sprintf "%s: %d/%d committed" label ok total);
    ok
  | Error e ->
    record ctx ~ok:0 ~bad:total (Printf.sprintf "%s: %s" label e);
    0

(* log-sat: preloaded transactions, no emulated hop - the CPU-bound path
   (one frame per message, no Batcher).  Epochs sized as the bench [rsm]
   section sizes them: twice the tx-bearing epochs plus the window and
   slack, so every preloaded transaction commits.  10,000 txs per run: at
   40,000 the heap peaked near 400 MB, and the run-to-run spread of the
   throughput across processes grew to 9%. *)
let sat_total = function Full -> 10_000 | Smoke -> 2_000

let sat_params ctx ~total i =
  let cap = (log_cfg.Types.n - log_cfg.Types.t) * log_batch_txs in
  log_params
    ~coin_seed:(Cluster.instance_seed ~seed:ctx.seed i)
    ~epochs:(log_window + ((total + cap - 1) / cap * 2) + 2)

let sat_run ctx ~label ~total i =
  let r =
    Cluster.run_rsm_loadgen ~timeout_s:60. (sat_params ctx ~total i)
      ~load:{ Cluster.lg_rate = 0.; lg_total = total; lg_tx_bytes = log_tx_bytes }
      ~transport:`Tcp
  in
  (log_record ctx ~label ~total r, r)

let log_sat =
  { name = "log-sat";
    trace_k = 5;
    setup =
      (fun ctx ->
        let total = sat_total ctx.size in
        ignore (sat_run ctx ~label:"log-sat warm-up" ~total 0 : bool * _));
    measure =
      (fun ctx ~budget_s ->
        let total = sat_total ctx.size in
        let runs = ref [] in
        until_budget ~budget_s ~first:1 (fun i ->
            match sat_run ctx ~label:(Printf.sprintf "log-sat run %d" i) ~total i with
            | true, Ok r -> runs := r :: !runs
            | _ -> ());
        (* medians over runs: a burst of outside interference slows one
           run, which moves the mean of the runs but not their median *)
        let med f = Stats.median (Array.of_list (List.map f !runs)) in
        { ops = List.fold_left (fun a r -> a + r.Cluster.lr_committed) 0 !runs;
          wall_s = List.fold_left (fun a r -> a +. r.Cluster.lr_duration_s) 0. !runs;
          ops_per_s = med (fun r -> r.Cluster.lr_tx_per_s);
          lat_p50_ms = med (fun r -> r.Cluster.lr_p50_ms);
          lat_tail_ms = med (fun r -> r.Cluster.lr_p99_ms);
          tail = Printf.sprintf "median over %d runs of each run's p99" (List.length !runs) });
    trace =
      (fun ctx ~budget_s ->
        let c = Traced.counters () in
        let total = sat_total ctx.size in
        let ops = ref 0 and wall = ref 0. in
        until_budget ~budget_s ~first:1 (fun i ->
            Span.recording := i = 1;
            let t0 = now () in
            let r =
              Traced.log_loadgen c (sat_params ctx ~total i) ~rate:0. ~total
                ~tx_bytes:log_tx_bytes ~hop_s:0. ~raw_epochs:50 ~timeout_s:60.
            in
            wall := !wall +. (now () -. t0);
            let label = Printf.sprintf "traced log-sat run %d" i in
            ops := !ops + traced_log ctx ~label ~total r);
        Span.recording := false;
        { t_ops = !ops; t_wall_s = !wall; t_counters = c }) }

(* log-hop: open loop at [hop_rate] tx/s under a 2 ms emulated one-way hop
   - the latency-bound regime the window exists for.  The log length is
   fixed up front, so set-up measures the epoch rate under the same load
   and the run gets epochs = ceil(1.5 * seconds * rate) + window: a faster
   build never runs out of epochs before the last injection. *)
let hop_rate = 2000.
let hop_s = 0.002
let hop_calibration = function Full -> (1.0, 100) | Smoke -> (0.2, 20)

let hop_load ~seconds =
  { Cluster.lg_rate = hop_rate;
    lg_total = int_of_float (hop_rate *. seconds);
    lg_tx_bytes = log_tx_bytes }

let hop_params ctx ~seconds i =
  log_params
    ~coin_seed:(Cluster.instance_seed ~seed:ctx.seed i)
    ~epochs:(int_of_float (Float.ceil (1.5 *. seconds *. ctx.epoch_rate)) + log_window)

let log_hop =
  { name = "log-hop";
    trace_k = 1;
    setup =
      (fun ctx ->
        let seconds, epochs = hop_calibration ctx.size in
        let params = log_params ~coin_seed:(Cluster.instance_seed ~seed:ctx.seed 0) ~epochs in
        let t0 = now () in
        match
          Cluster.run_rsm_loadgen ~timeout_s:60. ~hop_s params ~load:(hop_load ~seconds)
            ~transport:`Tcp
        with
        | Ok r -> ctx.epoch_rate <- Float.of_int r.Cluster.lr_epochs /. (now () -. t0)
        | Error e ->
          record ctx ~ok:0 ~bad:1 ("log-hop calibration: " ^ e);
          ctx.epoch_rate <- 100.);
    measure =
      (fun ctx ~budget_s ->
        let load = hop_load ~seconds:budget_s in
        let params = hop_params ctx ~seconds:budget_s 1 in
        let r = Cluster.run_rsm_loadgen ~timeout_s:120. ~hop_s params ~load ~transport:`Tcp in
        match (log_record ctx ~label:"log-hop" ~total:load.Cluster.lg_total r, r) with
        | true, Ok r ->
          { ops = r.Cluster.lr_committed;
            wall_s = r.Cluster.lr_duration_s;
            ops_per_s = r.Cluster.lr_tx_per_s;
            lat_p50_ms = r.Cluster.lr_p50_ms;
            lat_tail_ms = r.Cluster.lr_p99_ms;
            tail = Printf.sprintf "p99 of %d txs" r.Cluster.lr_committed }
        | _ ->
          { ops = 0; wall_s = 0.; ops_per_s = 0.; lat_p50_ms = 0.; lat_tail_ms = 0.; tail = "-" });
    trace =
      (fun ctx ~budget_s ->
        let c = Traced.counters () in
        let total = int_of_float (hop_rate *. budget_s) in
        Span.recording := true;
        let t0 = now () in
        let r =
          Traced.log_loadgen c (hop_params ctx ~seconds:budget_s 2) ~rate:hop_rate ~total
            ~tx_bytes:log_tx_bytes ~hop_s ~raw_epochs:50 ~timeout_s:120.
        in
        let wall = now () -. t0 in
        Span.recording := false;
        let ops = traced_log ctx ~label:"traced log-hop" ~total r in
        { t_ops = ops; t_wall_s = wall; t_counters = c }) }

(* ---- sim-byz ----------------------------------------------------------- *)

(* The Monte-Carlo engine behind Tables 1-2, chaos and fuzz: seeded
   [Aba.run] byz-strong runs at n=13, t=4 with alternating inputs under the
   random scheduler, one domain, no wire or socket. *)
let sim_cfg = Types.cfg ~n:13 ~t:4
let sim_inputs = Array.init 13 (fun i -> Value.of_bool (i land 1 = 1))
let sim_warmup = function Full -> 200 | Smoke -> 5
let sim_seed ctx i = Cluster.instance_seed ~seed:ctx.seed i

(* One run: its wall time and its deliveries (0 on failure). *)
let sim_one ctx i =
  let t0 = now () in
  let r = Aba.run ~seed:(sim_seed ctx i) Aba.Byz_strong ~cfg:sim_cfg ~inputs:sim_inputs in
  let dt = now () -. t0 in
  match r with
  | Ok r when Array.for_all (Value.equal r.Aba.value) r.Aba.commits ->
    record ctx ~ok:1 ~bad:0 "";
    (dt, r.Aba.deliveries)
  | Ok _ ->
    record ctx ~ok:0 ~bad:1 (Printf.sprintf "sim run %d: agreement violated" i);
    (dt, 0)
  | Error e ->
    record ctx ~ok:0 ~bad:1 (Printf.sprintf "sim run %d: %s" i e);
    (dt, 0)

let sim_byz =
  { name = "sim-byz";
    trace_k = 7;
    setup =
      (fun ctx ->
        for i = 0 to sim_warmup ctx.size - 1 do
          ignore (sim_one ctx i : float * int)
        done);
    measure =
      (fun ctx ~budget_s ->
        let samples = ref [] in
        until_budget ~budget_s ~first:(sim_warmup ctx.size) (fun i ->
            samples := sim_one ctx i :: !samples);
        closed_loop_e2e ~tail_q:0.99 ~what:"runs" (List.rev !samples));
    trace =
      (fun ctx ~budget_s ->
        let c = Traced.counters () in
        let first = sim_warmup ctx.size in
        let wall = ref 0. in
        until_budget ~budget_s ~first (fun i ->
            Span.recording := i = first;
            let seed = sim_seed ctx i in
            let t0 = now () in
            let r = Traced.sim_run c ~seed ~cfg:sim_cfg ~inputs:sim_inputs in
            wall := !wall +. (now () -. t0);
            match r with
            | Ok (v, d) when i < first + 3 -> (
              (* the rebuilt assembly must replay [Aba.run] exactly *)
              match Aba.run ~seed Aba.Byz_strong ~cfg:sim_cfg ~inputs:sim_inputs with
              | Ok r when Value.equal r.Aba.value v && r.Aba.deliveries = d ->
                record ctx ~ok:1 ~bad:0 ""
              | _ ->
                record ctx ~ok:0 ~bad:1
                  (Printf.sprintf "traced sim run %d diverged from Aba.run" i))
            | Ok _ -> record ctx ~ok:1 ~bad:0 ""
            | Error e -> record ctx ~ok:0 ~bad:1 (Printf.sprintf "traced sim run %d: %s" i e));
        Span.recording := false;
        { t_ops = c.Traced.deliveries; t_wall_s = !wall; t_counters = c }) }

let all = [ aba_b64; log_sat; log_hop; sim_byz ]

let find name = List.find_opt (fun w -> w.name = name) all
