module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Coin = Bca_coin.Coin
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Monitor = Bca_netsim.Monitor
module Chaos = Bca_adversary.Chaos
module Trace = Bca_obs.Trace
module Probe = Bca_core.Probe

type outcome = [ `Committed | `Stalled ]

type run_report = {
  run_seed : int64;
  plan : Chaos.plan;
  outcome : outcome;
  deliveries : int;
  chaos : Chaos.stats;
  violations : Monitor.violation list;
}

let safety_violations r =
  List.filter (function Monitor.Stalled _ -> false | _ -> true) r.violations

let pp_run_report ppf r =
  Format.fprintf ppf "@[<v>seed=0x%LxL outcome=%s deliveries=%d%a@,plan:@,  @[<v>%a@]"
    r.run_seed
    (match r.outcome with `Committed -> "committed" | `Stalled -> "stalled")
    r.deliveries
    (fun ppf (s : Chaos.stats) ->
      if s.drops + s.dups + s.corruptions + s.forced_heals > 0 then
        Format.fprintf ppf " drops=%d dups=%d corruptions=%d forced-heals=%d" s.drops
          s.dups s.corruptions s.forced_heals;
      if s.kills_fired + s.restarts > 0 then
        Format.fprintf ppf " kills=%d restarts=%d buffered=%d" s.kills_fired s.restarts
          s.kill_buffered;
      if s.adaptive_corruptions + s.adaptive_crashes > 0 then
        Format.fprintf ppf " adaptive-corruptions=%d adaptive-crashes=%d"
          s.adaptive_corruptions s.adaptive_crashes)
    r.chaos Chaos.pp r.plan;
  (* the runtime choices (redirect targets, swap partners) the plan text
     cannot show: without them a corruption run is not reproducible by
     hand *)
  List.iter
    (fun c -> Format.fprintf ppf "@,corruption %a" Chaos.pp_corruption c)
    r.chaos.Chaos.corruption_log;
  List.iter
    (fun v -> Format.fprintf ppf "@,VIOLATION: %a" Monitor.pp_violation v)
    r.violations;
  Format.fprintf ppf "@]"

type stack_report = {
  stack : string;
  runs : int;
  committed : int;
  stalled : int;
  failures : run_report list;
}

let six_stacks =
  let crash = Types.cfg ~n:5 ~t:2 in
  let byz = Types.cfg ~n:4 ~t:1 in
  [ ("crash/strong", Aba.Crash_strong, crash);
    ("crash/weak-0.25", Aba.Crash_weak 0.25, crash);
    ("crash/local", Aba.Crash_local, crash);
    ("byz/strong", Aba.Byz_strong, byz);
    ("byz/weak-0.25", Aba.Byz_weak 0.25, byz);
    ("byz/tsig", Aba.Byz_tsig, byz) ]

(* Stall windows scale with n: the measure below moves on every round entry
   or commit, so this many deliveries without any of either is decisive. *)
let stall_window n = 4_000 * n
let max_deliveries = 400_000

let run_once ?(tracer = Trace.null) ?(kills = 0) ~spec ~cfg ~seed () =
  let n = cfg.Types.n in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.of_bool (Rng.bool rng)) in
  let allow_corrupt = Aba.spec_mode spec = `Byz in
  let plan = Chaos.gen ~kills rng ~n ~max_faults:cfg.Types.t ~allow_corrupt in
  let corrupt = Array.make n false in
  List.iter (fun p -> corrupt.(p) <- true) plan.Chaos.corrupt;
  let driver =
    { Aba.drive =
        (fun ~coin ~wire:_ exec parties ->
          let progress () =
            Array.fold_left
              (fun acc (p : Aba.party) ->
                acc + p.round () + if p.committed () = None then 0 else 1000)
              0 parties
          in
          let monitor =
            Monitor.create ~n
              ~honest:(fun p -> not corrupt.(p))
              ~inputs
              ~decision:(fun p -> parties.(p).Aba.committed ())
              ~commit_round:(fun p -> parties.(p).Aba.commit_round ())
              ?coin_value:
                (if Aba.spec_commits_on_coin spec then
                   Some (fun ~round ~pid -> Coin.value_for coin ~round ~pid)
                 else None)
              ~progress ~stall_window:(stall_window n) ~tracer ()
          in
          let probe = Probe.create ~tracer parties in
          Async.set_observer exec (fun _ ->
              Monitor.on_delivery monitor;
              Probe.poll probe);
          let ch = Chaos.start plan exec in
          let all_honest_done exec =
            let ok = ref true in
            Array.iteri
              (fun p (party : Aba.party) ->
                if
                  (not corrupt.(p))
                  && (not (Async.crashed exec p))
                  && party.Aba.committed () = None
                then ok := false)
              parties;
            !ok
          in
          let (_ : Async.outcome) =
            Chaos.run ~max_deliveries ~stop_when:all_honest_done ch
          in
          (* milestones caused by the last delivery are only visible now *)
          Probe.poll probe;
          Monitor.final_check monitor;
          { run_seed = seed;
            plan;
            outcome = (if all_honest_done exec then `Committed else `Stalled);
            deliveries = Async.deliveries exec;
            chaos = Chaos.stats ch;
            violations = Monitor.violations monitor })
    }
  in
  match Aba.run_custom ~seed ~tracer spec ~cfg ~inputs ~driver with
  | Ok r -> r
  | Error msg -> invalid_arg ("chaos run_once: " ^ msg)

let run_stack ?domains ?(kills = 0) ~name ~spec ~cfg ~runs ~seed () =
  let reports =
    Mc.map ?domains ~runs ~seed (fun ~seed -> run_once ~kills ~spec ~cfg ~seed ())
  in
  let committed = ref 0 and stalled = ref 0 and failures = ref [] in
  Array.iter
    (fun r ->
      (match r.outcome with
      | `Committed -> incr committed
      | `Stalled -> incr stalled);
      if safety_violations r <> [] then failures := r :: !failures)
    reports;
  { stack = name;
    runs;
    committed = !committed;
    stalled = !stalled;
    failures = List.rev !failures }

let run_all ?domains ?(kills = 0) ~runs ~seed () =
  List.mapi
    (fun i (name, spec, cfg) ->
      run_stack ?domains ~kills ~name ~spec ~cfg ~runs
        ~seed:(Int64.add seed (Int64.of_int i))
        ())
    six_stacks

(* Monitor self-test: a crash/strong cluster where party 0 equivocates the
   termination layer.  In crash mode one [committed(v)] message makes the
   receiver commit v, so delivering committed(0) to p1 and committed(1) to
   p2 forces an agreement violation the monitor must flag.  Assembled by
   hand (not through [run_custom]) because the lie needs the stack's
   concrete message type. *)
module S = Aba.Crash_strong_stack

(* Everything up to (but excluding) the first delivery, shared between the
   live run and its replay: rebuilding this from the same seed yields a
   cluster in the same state with the same pending envelope ids, which is
   the precondition of the replay determinism contract (DESIGN.md
   section 10). *)
type broken = {
  b_exec : S.msg Async.t;
  b_monitor : Monitor.t;
  b_probe : Probe.t;
  b_plan : Chaos.plan;
  b_state : int -> S.t;
  b_n : int;
}

let broken_setup ~tracer ~seed =
  let cfg = Types.cfg ~n:5 ~t:2 in
  let n = cfg.Types.n in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.of_bool (Rng.bool rng)) in
  let plan = Chaos.gen rng ~n ~max_faults:0 ~allow_corrupt:false in
  let coin =
    Coin.create Coin.Strong ~n ~degree:cfg.Types.t ~seed:(Int64.add seed 0x5EEDL)
  in
  if Trace.enabled tracer then
    Coin.set_observer coin (fun ~round ~pid value ->
        Trace.emit tracer (Bca_obs.Event.Coin_reveal { pid; round; value }));
  let params = { S.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let states = Array.make n None in
  let exec =
    Async.create_traced ~tracer ~n ~make:(fun pid ->
        let t, initial = S.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some t;
        (S.node t, List.map (fun m -> Node.Broadcast m) initial))
  in
  let state pid = Option.get states.(pid) in
  let parties =
    Array.init n (fun pid ->
        { Aba.committed = (fun () -> S.committed (state pid));
          commit_round = (fun () -> S.commit_round (state pid));
          round = (fun () -> S.current_round (state pid));
          phase = (fun () -> S.current_phase (state pid)) })
  in
  let monitor =
    Monitor.create ~n ~inputs
      ~decision:(fun p -> S.committed (state p))
      ~commit_round:(fun p -> S.commit_round (state p))
      ~coin_value:(fun ~round ~pid -> Coin.value_for coin ~round ~pid)
      ~progress:(fun () ->
        let acc = ref 0 in
        for p = 0 to n - 1 do
          acc := !acc + S.current_round (state p);
          if S.committed (state p) <> None then acc := !acc + 1000
        done;
        !acc)
      ~stall_window:(stall_window n) ~tracer ()
  in
  let probe = Probe.create ~tracer parties in
  Async.set_observer exec (fun _ ->
      Monitor.on_delivery monitor;
      Probe.poll probe);
  Async.inject exec ~src:0
    [ Node.Unicast (1, S.Committed Value.V0); Node.Unicast (2, S.Committed Value.V1) ];
  { b_exec = exec; b_monitor = monitor; b_probe = probe; b_plan = plan;
    b_state = state; b_n = n }

let broken_all_done b exec =
  let ok = ref true in
  for p = 0 to b.b_n - 1 do
    if (not (Async.crashed exec p)) && S.committed (b.b_state p) = None then ok := false
  done;
  !ok

let broken_report b ~seed ~chaos =
  Probe.poll b.b_probe;
  Monitor.final_check b.b_monitor;
  { run_seed = seed;
    plan = b.b_plan;
    outcome = (if broken_all_done b b.b_exec then `Committed else `Stalled);
    deliveries = Async.deliveries b.b_exec;
    chaos;
    violations = Monitor.violations b.b_monitor }

let broken_run ?(tracer = Trace.null) ~seed () =
  let b = broken_setup ~tracer ~seed in
  let exec = b.b_exec in
  (* Deliver the two lies first so the violation does not depend on the
     schedule racing honest committed broadcasts. *)
  List.iter
    (fun (e : _ Async.envelope) ->
      match e.payload with
      | S.Committed _ when e.src = 0 -> ignore (Async.deliver_eid exec e.eid : bool)
      | _ -> ())
    (Async.inflight exec);
  let ch = Chaos.start b.b_plan exec in
  let (_ : Async.outcome) =
    Chaos.run ~max_deliveries ~stop_when:(broken_all_done b) ch
  in
  broken_report b ~seed ~chaos:(Chaos.stats ch)

let replay_broken ~seed events =
  let tracer = Trace.create ~capacity:(Array.length events) () in
  let b = broken_setup ~tracer ~seed in
  match Async.replay b.b_exec events with
  | Error _ as e -> e
  | Ok () ->
    (* the chaos decisions are baked into the action log; no chaos engine
       runs during replay, so its counters are vacuously zero *)
    let chaos = Chaos.zero_stats in
    (* the final-poll events belong to the trace: snapshot only after *)
    let report = broken_report b ~seed ~chaos in
    Ok (report, Trace.events tracer)
