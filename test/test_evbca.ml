(* Tests for the Appendix G constructions: EVBCA-Byz (Aba.Byz_ev_stack) and
   EVBCA-TSig (Aa_ev_tsig), end-to-end under random schedules, plus unit checks of the
   start-context optimizations. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Threshold = Bca_crypto.Threshold
module Evbca = Bca_core.Evbca_byz
module Ev_stack = Bca_core.Aba.Byz_ev_stack
module Evt = Bca_core.Evbca_tsig
module Aa_evt = Bca_core.Aa_ev_tsig
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Cluster = Bca_test_helpers.Cluster

let cfg = Types.cfg ~n:4 ~t:1

(* ------------------------------------------------------------------ *)
(* Unit: the optimizations of Appendix G.1.                             *)
(* ------------------------------------------------------------------ *)

let test_unit_fresh_is_algorithm4 () =
  let p = Evbca.create cfg ~me:0 in
  let out = Evbca.start p ~input:Value.V0 ~ctx:Evbca.fresh in
  Alcotest.(check bool) "plain echo" true (out = [ Evbca.MEcho Value.V0 ])

let test_unit_opt3_skip_echo () =
  let p = Evbca.create cfg ~me:0 in
  let ctx = { Evbca.auto_approve = Some Value.V1; skip_echo = true; early_echo3 = None } in
  let out = Evbca.start p ~input:Value.V1 ~ctx in
  Alcotest.(check bool) "echo2 only" true (out = [ Evbca.MEcho2 Value.V1 ]);
  Alcotest.(check bool) "auto approved" true (List.mem Value.V1 (Evbca.approved p))

let test_unit_opt4_early_echo3 () =
  let p = Evbca.create cfg ~me:0 in
  let ctx = { Evbca.auto_approve = None; skip_echo = false; early_echo3 = Some Value.V0 } in
  let out = Evbca.start p ~input:Value.V0 ~ctx in
  Alcotest.(check bool) "echo2 and echo3 together" true
    (out = [ Evbca.MEcho2 Value.V0; Evbca.MEcho3 (Types.Val Value.V0) ])

let test_unit_external_approve_votes () =
  let p = Evbca.create cfg ~me:0 in
  let ctx = { Evbca.auto_approve = None; skip_echo = false; early_echo3 = None } in
  ignore (Evbca.start p ~input:Value.V0 ~ctx : Evbca.msg list);
  let out = Evbca.external_approve p Value.V1 in
  Alcotest.(check bool) "late auto-approval votes (optimization 2)" true
    (List.mem (Evbca.MEcho2 Value.V1) out)

(* ------------------------------------------------------------------ *)
(* End-to-end: AA-EVBCA under random schedules.                        *)
(* ------------------------------------------------------------------ *)

let run_aa_ev ~inputs ~seed =
  let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:(Int64.add seed 1L) in
  let params = { Ev_stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let states = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        let st, init = Ev_stack.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some st;
        (Ev_stack.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let rng = Rng.create seed in
  let outcome = Async.run exec (Async.random_scheduler rng) in
  (outcome, Array.map (fun st -> Option.bind st Ev_stack.committed) states)

let prop_aa_ev_agreement =
  QCheck2.Test.make ~count:200 ~name:"AA-EVBCA: agreement + termination (all honest)"
    QCheck2.Gen.(pair (Cluster.inputs_gen 4) (int_bound 100_000))
    (fun (inputs, seed) ->
      let outcome, commits = run_aa_ev ~inputs ~seed:(Int64.of_int seed) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let vs = Array.to_list commits |> List.filter_map Fun.id in
      if List.length vs <> 4 then QCheck2.Test.fail_report "missing commit";
      match vs with
      | v :: rest ->
        if not (List.for_all (Value.equal v) rest) then
          QCheck2.Test.fail_report "agreement violated";
        (* round-1 validity is plain validity: EVBCA's external validity only
           widens later rounds *)
        if Cluster.all_same_inputs inputs then Value.equal v inputs.(0) else true
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* End-to-end: Aa_ev_tsig under random schedules.                       *)
(* ------------------------------------------------------------------ *)

let run_aa_evt ~inputs ~seed =
  let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:(Int64.add seed 1L) in
  let setup, keys = Threshold.setup ~n:4 ~seed:(Int64.add seed 2L) in
  let states = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        let params = { Aa_evt.cfg; coin; setup; key = keys.(pid) } in
        let st, init = Aa_evt.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some st;
        (Aa_evt.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let rng = Rng.create seed in
  let outcome = Async.run exec (Async.random_scheduler rng) in
  (outcome, Array.map (fun st -> Option.bind st Aa_evt.committed) states)

let prop_aa_evt_agreement =
  QCheck2.Test.make ~count:200 ~name:"AA-EVBCA-TSig: agreement + termination (all honest)"
    QCheck2.Gen.(pair (Cluster.inputs_gen 4) (int_bound 100_000))
    (fun (inputs, seed) ->
      let outcome, commits = run_aa_evt ~inputs ~seed:(Int64.of_int seed) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let vs = Array.to_list commits |> List.filter_map Fun.id in
      if List.length vs <> 4 then QCheck2.Test.fail_report "missing commit";
      match vs with
      | v :: rest ->
        if not (List.for_all (Value.equal v) rest) then
          QCheck2.Test.fail_report "agreement violated";
        if Cluster.all_same_inputs inputs then Value.equal v inputs.(0) else true
      | [] -> false)

(* The decide shortcut: forging a decide message with a wrong-round
   certificate must be ignored. *)
let test_unit_decide_validation () =
  let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:3L in
  let setup, keys = Threshold.setup ~n:4 ~seed:4L in
  let params = { Aa_evt.cfg; coin; setup; key = keys.(0) } in
  let st, _ = Aa_evt.create params ~me:0 ~input:Value.V0 in
  (* a certificate on round 1's echo3 tag for the value the round-1 coin
     does NOT have: handle_decide must reject it *)
  let c1 = Coin.value_for coin ~round:1 ~pid:0 in
  let wrong = Value.negate c1 in
  let shares =
    List.init 3 (fun i ->
        Threshold.sign keys.(i) ~tag:(Evt.echo3_tag ~round:1 wrong))
  in
  let sigma =
    Option.get (Threshold.combine setup ~k:3 ~tag:(Evt.echo3_tag ~round:1 wrong) shares)
  in
  let out = Aa_evt.handle st ~from:3 (Aa_evt.Decide (1, wrong, sigma)) in
  Alcotest.(check int) "rejected" 0 (List.length out);
  Alcotest.(check bool) "not committed" true (Aa_evt.committed st = None);
  (* with the correct coin value it is accepted and terminates the party *)
  let shares_ok =
    List.init 3 (fun i -> Threshold.sign keys.(i) ~tag:(Evt.echo3_tag ~round:1 c1))
  in
  let sigma_ok =
    Option.get (Threshold.combine setup ~k:3 ~tag:(Evt.echo3_tag ~round:1 c1) shares_ok)
  in
  let out = Aa_evt.handle st ~from:3 (Aa_evt.Decide (1, c1, sigma_ok)) in
  Alcotest.(check bool) "forwarded once" true
    (match out with [ Aa_evt.Decide (1, v, _) ] -> Value.equal v c1 | _ -> false);
  Alcotest.(check bool) "committed + terminated" true
    (Aa_evt.committed st = Some c1 && Aa_evt.terminated st)

let () =
  Alcotest.run "evbca"
    [ ( "unit",
        [ Alcotest.test_case "fresh = Algorithm 4" `Quick test_unit_fresh_is_algorithm4;
          Alcotest.test_case "opt 3 skip echo" `Quick test_unit_opt3_skip_echo;
          Alcotest.test_case "opt 4 early echo3" `Quick test_unit_opt4_early_echo3;
          Alcotest.test_case "late approval votes" `Quick test_unit_external_approve_votes;
          Alcotest.test_case "decide shortcut validation" `Quick test_unit_decide_validation
        ] );
      ( "end-to-end",
        [ QCheck_alcotest.to_alcotest prop_aa_ev_agreement;
          QCheck_alcotest.to_alcotest prop_aa_evt_agreement ] ) ]
