(* Chaos layer tests: the invariant monitor, fault-plan generation and
   gating (fairness budgets, healing partitions, crash schedules), and the
   chaos Monte-Carlo campaign over the six stacks - including the
   deliberately broken stack the monitor must catch. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Async = Bca_netsim.Async_exec
module Monitor = Bca_netsim.Monitor
module Chaos = Bca_adversary.Chaos
module Campaign = Bca_experiments.Chaos_campaign

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Monitor unit tests (driven by hand, no network)                      *)
(* ------------------------------------------------------------------ *)

let test_monitor_agreement () =
  let decisions = Array.make 3 None in
  let m =
    Monitor.create ~n:3 ~inputs:[| Value.V0; Value.V1; Value.V0 |]
      ~decision:(fun p -> decisions.(p))
      ()
  in
  decisions.(0) <- Some Value.V0;
  Monitor.on_delivery m;
  Alcotest.(check bool) "single decision ok" true (Monitor.ok m);
  Alcotest.(check bool) "first recorded" true
    (match Monitor.first_decision m with Some (0, Value.V0, _) -> true | _ -> false);
  decisions.(1) <- Some Value.V1;
  Monitor.on_delivery m;
  Alcotest.(check bool) "disagreement flagged" false (Monitor.safety_ok m);
  Alcotest.(check bool) "it is an agreement violation" true
    (List.exists
       (function Monitor.Agreement _ -> true | _ -> false)
       (Monitor.violations m))

let test_monitor_validity () =
  let decisions = Array.make 3 None in
  let m =
    Monitor.create ~n:3 ~inputs:(Array.make 3 Value.V1)
      ~decision:(fun p -> decisions.(p))
      ()
  in
  decisions.(2) <- Some Value.V0;
  Monitor.on_delivery m;
  Alcotest.(check bool) "non-unanimous decision flagged" true
    (List.exists
       (function
         | Monitor.Validity { p = 2; decided = Value.V0; _ } -> true
         | _ -> false)
       (Monitor.violations m))

let test_monitor_ignores_dishonest () =
  let decisions = Array.make 3 None in
  let m =
    Monitor.create ~n:3
      ~honest:(fun p -> p <> 1)
      ~inputs:[| Value.V1; Value.V0; Value.V1 |]
      ~decision:(fun p -> decisions.(p))
      ()
  in
  (* the corrupt party "deciding" the other value must not count, neither
     for agreement nor against the (honest-)unanimous input *)
  decisions.(0) <- Some Value.V1;
  decisions.(1) <- Some Value.V0;
  Monitor.on_delivery m;
  Alcotest.(check bool) "corrupt decision ignored" true (Monitor.ok m)

let test_monitor_binding_first_only () =
  (* the coin check applies to the first decision only: laggards commit via
     relayed committed(v) at their own (earlier) round whose coin may
     differ *)
  let decisions = Array.make 2 None and rounds = Array.make 2 None in
  let coin ~round ~pid:_ = if round = 1 then Value.V1 else Value.V0 in
  let m =
    Monitor.create ~n:2 ~inputs:[| Value.V0; Value.V1 |]
      ~decision:(fun p -> decisions.(p))
      ~commit_round:(fun p -> rounds.(p))
      ~coin_value:coin ()
  in
  decisions.(0) <- Some Value.V1;
  rounds.(0) <- Some 1;
  Monitor.on_delivery m;
  Alcotest.(check bool) "first commit matches its coin" true (Monitor.ok m);
  decisions.(1) <- Some Value.V1;
  rounds.(1) <- Some 2;
  (* round-2 coin is V0 *)
  Monitor.on_delivery m;
  Alcotest.(check bool) "laggard not coin-checked" true (Monitor.ok m)

let test_monitor_binding_violation () =
  let decisions = Array.make 2 None and rounds = Array.make 2 None in
  let m =
    Monitor.create ~n:2 ~inputs:[| Value.V0; Value.V1 |]
      ~decision:(fun p -> decisions.(p))
      ~commit_round:(fun p -> rounds.(p))
      ~coin_value:(fun ~round:_ ~pid:_ -> Value.V1)
      ()
  in
  decisions.(0) <- Some Value.V0;
  rounds.(0) <- Some 3;
  Monitor.on_delivery m;
  Alcotest.(check bool) "first commit against the coin flagged" true
    (List.exists
       (function
         | Monitor.Binding { p = 0; round = 3; decided = Value.V0; coin = Value.V1 } ->
           true
         | _ -> false)
       (Monitor.violations m))

let test_monitor_watchdog () =
  let progress = ref 0 in
  let m =
    Monitor.create ~n:2 ~inputs:[| Value.V0; Value.V0 |]
      ~decision:(fun _ -> None)
      ~progress:(fun () -> !progress)
      ~stall_window:5 ()
  in
  for _ = 1 to 4 do
    Monitor.on_delivery m
  done;
  Alcotest.(check bool) "below the window: fine" true (Monitor.ok m);
  incr progress;
  (* the first delivery below observes the new progress and resets the
     counter; the next 5 exhaust the window *)
  for _ = 1 to 6 do
    Monitor.on_delivery m
  done;
  Alcotest.(check bool) "stall flagged" true
    (List.exists
       (function Monitor.Stalled _ -> true | _ -> false)
       (Monitor.violations m));
  Alcotest.(check bool) "a stall is not a safety violation" true (Monitor.safety_ok m);
  let before = List.length (Monitor.violations m) in
  for _ = 1 to 20 do
    Monitor.on_delivery m
  done;
  Alcotest.(check int) "reported once" before (List.length (Monitor.violations m))

(* ------------------------------------------------------------------ *)
(* Plan generation                                                      *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let p1 = Chaos.gen (Rng.create 42L) ~n:5 ~max_faults:2 ~allow_corrupt:true in
  let p2 = Chaos.gen (Rng.create 42L) ~n:5 ~max_faults:2 ~allow_corrupt:true in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check string) "same serialization" (Chaos.to_string p1) (Chaos.to_string p2);
  let p3 = Chaos.gen (Rng.create 43L) ~n:5 ~max_faults:2 ~allow_corrupt:true in
  Alcotest.(check bool) "different seed, different plan" true (p1 <> p3)

let test_gen_bounds () =
  for seed = 0 to 39 do
    let allow_corrupt = seed mod 2 = 0 in
    let plan =
      Chaos.gen (Rng.create (Int64.of_int seed)) ~n:5 ~max_faults:2 ~allow_corrupt
    in
    Alcotest.(check bool) "faults within bound" true
      (List.length (Chaos.faulty_parties plan) <= 2);
    if not allow_corrupt then
      Alcotest.(check (list int)) "no corruption for crash stacks" [] plan.Chaos.corrupt;
    List.iter
      (fun (p : Chaos.partition) ->
        Alcotest.(check bool) "partition carries a heal point" true
          (p.Chaos.heal_delivery > p.Chaos.from_delivery))
      plan.Chaos.partitions;
    List.iter
      (fun (c : Chaos.crash) ->
        Alcotest.(check bool) "victim in range" true (c.Chaos.victim >= 0 && c.Chaos.victim < 5))
      plan.Chaos.crashes
  done

(* ------------------------------------------------------------------ *)
(* Executing plans against real stacks                                  *)
(* ------------------------------------------------------------------ *)

(* Run [spec] under a fixed [plan] with a monitor attached; returns the
   violations, chaos stats, and per-party commits. *)
let run_with_plan spec cfg plan ~seed =
  let n = cfg.Types.n in
  let inputs = Array.init n (fun i -> Value.of_bool (i mod 2 = 0)) in
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire:_ exec parties ->
          let monitor =
            Monitor.create ~n ~inputs ~decision:(fun p -> parties.(p).Aba.committed ()) ()
          in
          Monitor.attach monitor exec;
          let ch = Chaos.start plan exec in
          let outcome = Chaos.run ~max_deliveries:200_000 ch in
          ( outcome,
            Monitor.violations monitor,
            Chaos.stats ch,
            Array.map (fun (p : Aba.party) -> p.Aba.committed ()) parties ))
    }
  in
  match Aba.run_custom ~seed spec ~cfg ~inputs ~driver with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let cfg5 = Types.cfg ~n:5 ~t:2

let test_silent_plan_is_benign () =
  let outcome, violations, (stats : Chaos.stats), commits =
    run_with_plan Aba.Crash_strong cfg5 (Chaos.silent ~n:5) ~seed:11L
  in
  Alcotest.(check bool) "terminates" true (outcome = `All_terminated);
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check int) "no drops" 0 stats.Chaos.drops;
  Alcotest.(check int) "no dups" 0 stats.Chaos.dups;
  Alcotest.(check int) "no corruptions" 0 stats.Chaos.corruptions;
  Array.iter
    (fun c -> Alcotest.(check bool) "everyone committed alike" true (c = commits.(0)))
    commits

let test_partition_heals () =
  let plan =
    { (Chaos.silent ~n:5) with
      Chaos.partitions =
        [ { Chaos.from_delivery = 0;
            heal_delivery = 150;
            side = [| true; true; false; false; false |] } ]
    }
  in
  let outcome, violations, _, commits = run_with_plan Aba.Crash_strong cfg5 plan ~seed:3L in
  Alcotest.(check bool) "terminates despite the cut" true (outcome = `All_terminated);
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check bool) "all committed" true (Array.for_all (( <> ) None) commits)

let test_crash_schedule () =
  let plan =
    { (Chaos.silent ~n:5) with
      Chaos.crashes = [ { Chaos.victim = 0; at_delivery = 10; last_recipients = [ 1 ] } ]
    }
  in
  let driver_result = run_with_plan Aba.Crash_strong cfg5 plan ~seed:5L in
  let _, violations, _, commits = driver_result in
  Alcotest.(check int) "no safety violations" 0 (List.length violations);
  (* the survivors must agree among themselves (uniform agreement with the
     crashed party's commit, if any, is the monitor's job) *)
  let decided = Array.to_list commits |> List.filter_map Fun.id in
  (match decided with
  | [] -> Alcotest.fail "nobody committed"
  | v :: rest ->
    Alcotest.(check bool) "survivors agree" true (List.for_all (Value.equal v) rest));
  Alcotest.(check bool) "at least the 4 survivors decided" true
    (List.length decided >= 4)

let test_fairness_budget_caps_honest_drops () =
  (* an all-honest plan whose links want to drop everything: the per-link
     budget must cap the damage, and safety must survive the drops *)
  let plan =
    { (Chaos.silent ~n:5) with
      Chaos.default_link = { Chaos.reliable with Chaos.p_drop = 1.0 };
      Chaos.fairness = 1
    }
  in
  let _, violations, (stats : Chaos.stats), _ =
    run_with_plan Aba.Crash_strong cfg5 plan ~seed:9L
  in
  Alcotest.(check bool) "drops happened" true (stats.Chaos.drops > 0);
  Alcotest.(check bool) "budget caps drops at fairness * links" true
    (stats.Chaos.drops <= 1 * 5 * 5);
  Alcotest.(check int) "dropping within budget never breaks safety" 0
    (List.length
       (List.filter
          (function Monitor.Stalled _ -> false | _ -> true)
          violations))

(* ------------------------------------------------------------------ *)
(* The campaign                                                         *)
(* ------------------------------------------------------------------ *)

let test_campaign_all_stacks_safe () =
  let reports = Campaign.run_all ~runs:8 ~seed:2026L () in
  Alcotest.(check int) "six stacks" 6 (List.length reports);
  List.iter
    (fun (s : Campaign.stack_report) ->
      Alcotest.(check int) (s.Campaign.stack ^ ": zero safety failures") 0
        (List.length s.Campaign.failures);
      Alcotest.(check bool) (s.Campaign.stack ^ ": some runs commit") true
        (s.Campaign.committed > 0);
      Alcotest.(check int) (s.Campaign.stack ^ ": accounting adds up")
        s.Campaign.runs
        (s.Campaign.committed + s.Campaign.stalled))
    reports

(* The chaos gate: 100 plans per stack at root seed 42 (stack i at seed
   42 + i), and not one safety violation.  Stalls are legal liveness
   losses; any failure is reported with its reproducing seed. *)
let test_chaos_gate () =
  List.iter
    (fun (s : Campaign.stack_report) ->
      Alcotest.(check int) (s.Campaign.stack ^ ": 100 plans") 100 s.Campaign.runs;
      match s.Campaign.failures with
      | [] -> ()
      | worst :: _ ->
        Alcotest.failf "%s: %d safety failure(s) in 100 plans; first:@.%a" s.Campaign.stack
          (List.length s.Campaign.failures) Campaign.pp_run_report worst)
    (Campaign.run_all ~runs:100 ~seed:42L ())

let test_campaign_deterministic () =
  let a = Campaign.run_once ~spec:Aba.Byz_strong ~cfg:(Types.cfg ~n:4 ~t:1) ~seed:123L () in
  let b = Campaign.run_once ~spec:Aba.Byz_strong ~cfg:(Types.cfg ~n:4 ~t:1) ~seed:123L () in
  Alcotest.(check bool) "same seed, same report" true (a = b)

let test_campaign_parallel_matches_sequential () =
  let run domains =
    Campaign.run_stack ~domains ~name:"crash/strong" ~spec:Aba.Crash_strong ~cfg:cfg5
      ~runs:6 ~seed:77L ()
  in
  Alcotest.(check bool) "domain count does not change results" true (run 1 = run 3)

let test_broken_stack_caught () =
  let r = Campaign.broken_run ~seed:7L () in
  let safety = Campaign.safety_violations r in
  Alcotest.(check bool) "violations found" true (safety <> []);
  Alcotest.(check bool) "an agreement violation among them" true
    (List.exists (function Monitor.Agreement _ -> true | _ -> false) safety);
  let report = Format.asprintf "%a" Campaign.pp_run_report r in
  Alcotest.(check bool) "report names the seed" true (contains report "seed=0x7");
  Alcotest.(check bool) "report embeds the plan" true (contains report "plan:");
  Alcotest.(check bool) "report shows the violation" true (contains report "VIOLATION");
  Alcotest.(check bool) "replayable: same seed, same violations" true
    (Campaign.broken_run ~seed:7L () = r)

let () =
  Alcotest.run "chaos"
    [ ( "monitor",
        [ Alcotest.test_case "agreement" `Quick test_monitor_agreement;
          Alcotest.test_case "validity" `Quick test_monitor_validity;
          Alcotest.test_case "dishonest ignored" `Quick test_monitor_ignores_dishonest;
          Alcotest.test_case "binding first-only" `Quick test_monitor_binding_first_only;
          Alcotest.test_case "binding violation" `Quick test_monitor_binding_violation;
          Alcotest.test_case "watchdog" `Quick test_monitor_watchdog ] );
      ( "plans",
        [ Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "gen bounds" `Quick test_gen_bounds ] );
      ( "execution",
        [ Alcotest.test_case "silent plan benign" `Quick test_silent_plan_is_benign;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "crash schedule" `Quick test_crash_schedule;
          Alcotest.test_case "fairness budget" `Quick test_fairness_budget_caps_honest_drops ] );
      ( "campaign",
        [ Alcotest.test_case "all stacks safe" `Slow test_campaign_all_stacks_safe;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "parallel == sequential" `Quick
            test_campaign_parallel_matches_sequential;
          Alcotest.test_case "broken stack caught" `Quick test_broken_stack_caught;
          Alcotest.test_case "gate: 100 plans per stack at seed 42, zero safety failures" `Quick
            test_chaos_gate ] ) ]
