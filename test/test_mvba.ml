(* Multivalued BA over the binary stacks: agreement on one proposed value,
   unanimity validity, termination with silent parties, and a chaos
   campaign under the multivalued monitor - zero violations. *)

module Acs = Bca_rsm.Acs
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Monitor = Bca_netsim.Monitor
module Node = Bca_netsim.Node
module Chaos = Bca_adversary.Chaos
module Rng = Bca_util.Rng

let proposal_of pid = Printf.sprintf "value-%d" pid

let run_mvba ?(n = 4) ?(t = 1) ?(proposal = proposal_of) ?(silent = []) ~seed () =
  let cfg = Types.cfg ~n ~t in
  let params = { Acs.cfg; coin_seed = Int64.add seed 17L } in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        if List.mem pid silent then (Node.silent, [])
        else begin
          let st, init = Acs.create params ~me:pid ~proposal:(proposal pid) in
          states.(pid) <- Some st;
          (Acs.node st, List.map (fun m -> Node.Broadcast m) init)
        end)
  in
  let proposals = Array.init n proposal in
  let monitor =
    Monitor.Multi.create ~n
      ~honest:(fun pid -> not (List.mem pid silent))
      ~proposals
      ~decision:(fun pid -> Option.bind states.(pid) Acs.decided)
      ()
  in
  Monitor.Multi.attach monitor exec;
  let outcome = Async.run ~max_deliveries:2_000_000 exec (Async.random_scheduler (Rng.create seed)) in
  Monitor.Multi.final_check monitor;
  (outcome, states, monitor)

let decisions states =
  Array.to_list states |> List.filter_map (fun st -> Option.bind st Acs.decided)

let test_agreement_on_a_proposal () =
  let outcome, states, monitor = run_mvba ~seed:1L () in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  Alcotest.(check int) "no violations" 0 (List.length (Monitor.Multi.violations monitor));
  match decisions states with
  | d :: rest as all ->
    Alcotest.(check int) "everyone decided" 4 (List.length all);
    List.iter (fun d' -> Alcotest.(check string) "agreement" d d') rest;
    Alcotest.(check bool) "decided value was proposed" true
      (List.exists (fun pid -> String.equal d (proposal_of pid)) [ 0; 1; 2; 3 ])
  | [] -> Alcotest.fail "nobody decided"

let test_unanimity_validity () =
  let outcome, states, monitor =
    run_mvba ~proposal:(fun _ -> "the-one-value") ~seed:2L ()
  in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  Alcotest.(check bool) "monitor clean" true (Monitor.Multi.ok monitor);
  List.iter
    (fun d -> Alcotest.(check string) "validity" "the-one-value" d)
    (decisions states)

let test_silent_party () =
  let outcome, states, monitor = run_mvba ~silent:[ 3 ] ~seed:3L () in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  Alcotest.(check bool) "monitor clean" true (Monitor.Multi.ok monitor);
  match decisions states with
  | d :: rest ->
    List.iter (fun d' -> Alcotest.(check string) "agreement" d d') rest
  | [] -> Alcotest.fail "nobody decided"

let test_accepted_subset_identical () =
  let _, states, _ = run_mvba ~seed:4L () in
  let subsets =
    Array.to_list states |> List.filter_map (fun st -> Option.bind st Acs.output)
  in
  match subsets with
  | s :: rest ->
    Alcotest.(check bool) "quorum-sized" true (List.length s >= 3);
    List.iter
      (fun s' ->
        Alcotest.(check (list (pair int string))) "identical common subset" s s')
      rest
  | [] -> Alcotest.fail "no common subset"

let test_digest_deterministic () =
  Alcotest.(check int64) "fnv-1a offset basis" 0xCBF29CE484222325L (Acs.digest "");
  Alcotest.(check int64) "stable" (Acs.digest "abc") (Acs.digest "abc");
  Alcotest.(check bool) "separates" true
    (not (Int64.equal (Acs.digest "abc") (Acs.digest "abd")))

(* Chaos campaign: generated plans with crashes, partitions, link faults
   and kill/restart faults.  Safety - multivalued agreement and validity
   over the honest survivors - must hold on every plan; zero monitor
   violations modulo the liveness flag. *)
let prop_chaos_campaign =
  QCheck2.Test.make ~count:120 ~name:"mvba agreement+validity under chaos"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let seed64 = Int64.of_int seed in
      let n = 4 in
      let plan =
        Chaos.gen ~kills:1 (Rng.create seed64) ~n ~max_faults:1 ~allow_corrupt:false
      in
      let faulty = Chaos.faulty_parties plan in
      let cfg = Types.cfg ~n ~t:1 in
      let params = { Acs.cfg; coin_seed = Int64.add seed64 23L } in
      let unanimous = seed mod 2 = 0 in
      let proposal pid = if unanimous then "v" else proposal_of pid in
      let states = Array.make n None in
      let exec =
        Async.create ~n ~make:(fun pid ->
            let st, init = Acs.create params ~me:pid ~proposal:(proposal pid) in
            states.(pid) <- Some st;
            (Acs.node st, List.map (fun m -> Node.Broadcast m) init))
      in
      let monitor =
        Monitor.Multi.create ~n
          ~honest:(fun pid -> not (List.mem pid faulty))
          ~proposals:(Array.init n proposal)
          ~decision:(fun pid -> Option.bind states.(pid) Acs.decided)
          ()
      in
      Monitor.Multi.attach monitor exec;
      let ch = Chaos.start plan exec in
      ignore (Chaos.run ~max_deliveries:300_000 ch : Async.outcome);
      Monitor.Multi.final_check monitor;
      if not (Monitor.Multi.safety_ok monitor) then
        QCheck2.Test.fail_reportf "violations under plan:@.%a@.%a" Chaos.pp plan
          (Format.pp_print_list Monitor.Multi.pp_violation)
          (Monitor.Multi.violations monitor);
      true)

let () =
  Alcotest.run "mvba"
    [ ( "multivalued agreement",
        [ Alcotest.test_case "agreement on a proposal" `Quick test_agreement_on_a_proposal;
          Alcotest.test_case "unanimity validity" `Quick test_unanimity_validity;
          Alcotest.test_case "silent party" `Quick test_silent_party;
          Alcotest.test_case "common subset identical" `Quick test_accepted_subset_identical;
          Alcotest.test_case "digest deterministic" `Quick test_digest_deterministic ] );
      ("chaos", [ QCheck_alcotest.to_alcotest prop_chaos_campaign ]) ]
