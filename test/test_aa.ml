(* End-to-end agreement tests: all six assembled stacks via the Aba facade,
   plus crash injection (ACA, uniform agreement) and Byzantine injection
   (ABA, including lying committed messages) on directly-built clusters. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Aba = Bca_core.Aba
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Cluster = Bca_test_helpers.Cluster
module Crash_stack = Bca_core.Aba.Crash_strong_stack
module Byz_stack = Bca_core.Aba.Byz_strong_stack

let cfg_c = Types.cfg ~n:5 ~t:2

let cfg_b = Types.cfg ~n:4 ~t:1

(* ------------------------------------------------------------------ *)
(* The facade, across every spec.                                       *)
(* ------------------------------------------------------------------ *)

let specs_with_cfg =
  [ (Aba.Crash_strong, cfg_c);
    (Aba.Crash_weak 0.25, cfg_c);
    (Aba.Crash_local, cfg_c);
    (Aba.Byz_strong, cfg_b);
    (Aba.Byz_weak 0.25, cfg_b);
    (Aba.Byz_tsig, cfg_b) ]

let prop_facade =
  QCheck2.Test.make ~count:120 ~name:"Aba.run: agreement + validity, every spec"
    QCheck2.Gen.(triple (int_bound 5) (Cluster.inputs_gen 5) (int_bound 100_000))
    (fun (spec_idx, inputs5, seed) ->
      let spec, cfg = List.nth specs_with_cfg spec_idx in
      let inputs = Array.sub inputs5 0 cfg.Types.n in
      match Aba.run ~seed:(Int64.of_int seed) spec ~cfg ~inputs with
      | Ok r ->
        if not (Array.for_all (Value.equal r.Aba.value) r.Aba.commits) then
          QCheck2.Test.fail_report "agreement violated";
        if Cluster.all_same_inputs inputs then Value.equal r.Aba.value inputs.(0)
        else true
      | Error e -> QCheck2.Test.fail_report e)

let test_facade_rejects_bad_resilience () =
  let inputs = [| Value.V0; Value.V1; Value.V0 |] in
  (match Aba.run Aba.Byz_strong ~cfg:(Types.cfg ~n:3 ~t:1) ~inputs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "n=3 t=1 Byzantine accepted");
  match Aba.run Aba.Crash_strong ~cfg:(Types.cfg ~n:3 ~t:1) ~inputs:[| Value.V0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong input arity accepted"

let test_facade_deterministic () =
  let inputs = [| Value.V0; Value.V1; Value.V0; Value.V1; Value.V0 |] in
  let r1 = Aba.run ~seed:99L Aba.Crash_strong ~cfg:cfg_c ~inputs in
  let r2 = Aba.run ~seed:99L Aba.Crash_strong ~cfg:cfg_c ~inputs in
  match (r1, r2) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same value" true (Value.equal a.Aba.value b.Aba.value);
    Alcotest.(check int) "same deliveries" a.Aba.deliveries b.Aba.deliveries
  | _ -> Alcotest.fail "run failed"

(* ------------------------------------------------------------------ *)
(* ACA with crashes, including mid-broadcast partial sends.             *)
(* ------------------------------------------------------------------ *)

let run_crash_cluster ~inputs ~crashes ~seed =
  let coin = Coin.create Coin.Strong ~n:5 ~degree:2 ~seed:(Int64.add seed 1L) in
  let params =
    { Crash_stack.cfg = cfg_c; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg_c) }
  in
  let states = Array.make 5 None in
  let exec =
    Async.create ~n:5 ~make:(fun pid ->
        let st, init = Crash_stack.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some st;
        let node = Crash_stack.node st in
        let node =
          match List.assoc_opt pid crashes with
          | Some (after, recipients) ->
            Bca_adversary.Faults.crash_after ~deliveries:after ~last_recipients:recipients
              node
          | None -> node
        in
        (node, List.map (fun m -> Node.Broadcast m) init))
  in
  let rng = Rng.create seed in
  let outcome = Async.run exec (Async.random_scheduler rng) in
  (outcome, states)

let prop_aca_crashes =
  QCheck2.Test.make ~count:200 ~name:"ACA: uniform agreement under t crashes"
    QCheck2.Gen.(
      quad (Cluster.inputs_gen 5) (int_bound 100_000)
        (pair (int_bound 4) (int_bound 30))
        (pair (int_bound 4) (int_bound 30)))
    (fun (inputs, seed, (c1, a1), (c2, a2)) ->
      QCheck2.assume (c1 <> c2);
      let crashes = [ (c1, (a1, [ (c1 + 1) mod 5 ])); (c2, (a2, [])) ] in
      let outcome, states = run_crash_cluster ~inputs ~crashes ~seed:(Int64.of_int seed) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      (* uniform agreement: every commit, including one a party made just
         before crashing, must agree *)
      let commits =
        Array.to_list states
        |> List.filter_map (fun st -> Option.bind st Crash_stack.committed)
      in
      let survivors =
        List.filteri (fun pid _ -> pid <> c1 && pid <> c2) (Array.to_list states)
      in
      if
        not
          (List.for_all
             (fun st -> Option.bind st Crash_stack.committed <> None)
             survivors)
      then QCheck2.Test.fail_report "a survivor did not commit";
      match commits with
      | [] -> false
      | v :: rest -> List.for_all (Value.equal v) rest)

(* ------------------------------------------------------------------ *)
(* ABA with a Byzantine that also lies in the termination layer.        *)
(* ------------------------------------------------------------------ *)

let byz_node rng =
  let bca_msg () =
    let v = Value.of_bool (Rng.bool rng) in
    let r = 1 + Rng.int rng 3 in
    match Rng.int rng 4 with
    | 0 -> Byz_stack.Bca (r, Bca_core.Bca_byz.MEcho v)
    | 1 -> Byz_stack.Bca (r, Bca_core.Bca_byz.MEcho2 v)
    | 2 -> Byz_stack.Bca (r, Bca_core.Bca_byz.MEcho3 (Types.Val v))
    | _ -> Byz_stack.Committed v
  in
  Node.make
    ~receive:(fun ~src:_ _ ->
      if Rng.int rng 3 = 0 then [ Node.Unicast (Rng.int rng 4, bca_msg ()) ] else [])
    ~terminated:(fun () -> true)
    ()

let prop_aba_byz =
  QCheck2.Test.make ~count:200 ~name:"ABA: agreement under Byzantine committed lies"
    QCheck2.Gen.(pair (Cluster.inputs_gen 4) (int_bound 100_000))
    (fun (inputs, seed) ->
      let coin =
        Coin.create Coin.Strong ~n:4 ~degree:1 ~seed:(Int64.of_int (seed + 1))
      in
      let params =
        { Byz_stack.cfg = cfg_b; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg_b) }
      in
      let rng_byz = Rng.create (Int64.of_int (seed + 2)) in
      let states = Array.make 4 None in
      let exec =
        Async.create ~n:4 ~make:(fun pid ->
            if pid = 3 then (byz_node rng_byz, [])
            else begin
              let st, init = Byz_stack.create params ~me:pid ~input:inputs.(pid) in
              states.(pid) <- Some st;
              (Byz_stack.node st, List.map (fun m -> Node.Broadcast m) init)
            end)
      in
      let rng = Rng.create (Int64.of_int seed) in
      let outcome = Async.run exec (Async.random_scheduler rng) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let commits =
        Array.to_list states |> List.filter_map (fun st -> Option.bind st Byz_stack.committed)
      in
      if List.length commits <> 3 then QCheck2.Test.fail_report "missing commit";
      let honest_inputs = Array.sub inputs 0 3 in
      match commits with
      | v :: rest ->
        if not (List.for_all (Value.equal v) rest) then
          QCheck2.Test.fail_report "agreement violated";
        if Array.for_all (Value.equal honest_inputs.(0)) honest_inputs then
          Value.equal v honest_inputs.(0)
        else true
      | [] -> false)

(* Deterministic crash-timing sweep: crash two parties at every grid point
   of early delivery counts under the lockstep executor; survivors must
   always terminate in agreement. *)
let test_crash_timing_sweep () =
  let module Lockstep = Bca_netsim.Lockstep in
  List.iter
    (fun (a1, a2) ->
      let coin =
        Coin.create Coin.Strong ~n:5 ~degree:2 ~seed:(Int64.of_int ((a1 * 100) + a2))
      in
      let params =
        { Crash_stack.cfg = cfg_c; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg_c) }
      in
      let inputs = [| Value.V0; Value.V0; Value.V0; Value.V1; Value.V1 |] in
      let states = Array.make 5 None in
      let crashes = [ (3, a1); (4, a2) ] in
      let make pid =
        let st, init = Crash_stack.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some st;
        let node = Crash_stack.node st in
        let node =
          match List.assoc_opt pid crashes with
          | Some after -> Bca_adversary.Faults.crash_after ~deliveries:after node
          | None -> node
        in
        (node, List.map (fun m -> Bca_netsim.Node.Broadcast m) init)
      in
      let res =
        Lockstep.run ~n:5 ~honest:(fun pid -> pid < 3) ~make ~max_steps:500 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "terminates with crashes at (%d, %d)" a1 a2)
        true
        (res.Lockstep.outcome = `All_terminated);
      let commits =
        Array.to_list states
        |> List.filter_map (fun st -> Option.bind st Crash_stack.committed)
      in
      match commits with
      | v :: rest ->
        Alcotest.(check bool) "uniform agreement" true (List.for_all (Value.equal v) rest)
      | [] -> Alcotest.fail "nobody committed")
    (List.concat_map
       (fun a1 -> List.map (fun a2 -> (a1, a2)) [ 0; 1; 3; 6; 10; 15 ])
       [ 0; 1; 3; 6; 10; 15 ])

let () =
  Alcotest.run "aa"
    [ ( "facade",
        [ QCheck_alcotest.to_alcotest prop_facade;
          Alcotest.test_case "rejects bad configs" `Quick test_facade_rejects_bad_resilience;
          Alcotest.test_case "deterministic by seed" `Quick test_facade_deterministic ] );
      ( "crash",
        [ QCheck_alcotest.to_alcotest prop_aca_crashes;
          Alcotest.test_case "crash timing sweep" `Quick test_crash_timing_sweep ] );
      ("byzantine", [ QCheck_alcotest.to_alcotest prop_aba_byz ]) ]
