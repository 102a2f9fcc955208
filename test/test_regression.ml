(* Golden determinism regression: every simulation in this repository is a
   pure function of its seed, so these exact values must never drift.  A
   change here means protocol or simulator behaviour changed - intentional
   changes should update the constants alongside an EXPERIMENTS.md note. *)

module Value = Bca_util.Value
module Summary = Bca_util.Summary
module Table1 = Bca_experiments.Table1
module Table2 = Bca_experiments.Table2

let seed = 4242L

let runs = 60

let check_mean name actual expected =
  Alcotest.(check (float 1e-6)) name expected actual.Summary.mean

let test_table_cells () =
  check_mean "table1.strong" (Table1.strong ~runs ~seed) 7.6;
  check_mean "table1.weak e=1/4" (Table1.weak ~eps:0.25 ~runs ~seed) 16.95;
  check_mean "table2.strong_t1" (Table2.strong_t1 ~runs ~seed) 16.433333333333333;
  check_mean "table2.strong_2t1" (Table2.strong_2t1 ~runs ~seed) 14.0;
  check_mean "table2.tsig" (Table2.tsig ~runs ~seed) 9.6

let test_facade_run () =
  let cfg = Bca_core.Types.cfg ~n:4 ~t:1 in
  let inputs = [| Value.V0; Value.V1; Value.V0; Value.V1 |] in
  match Bca_core.Aba.run ~seed Bca_core.Aba.Byz_strong ~cfg ~inputs with
  | Ok r ->
    Alcotest.(check string) "agreed value" "0" (Value.to_string r.Bca_core.Aba.value);
    Alcotest.(check int) "deliveries" 186 r.Bca_core.Aba.deliveries
  | Error e -> Alcotest.fail e

let test_attack_replay () =
  let r = Bca_adversary.Cz_attack.run ~degree:`T ~rounds:10 ~seed in
  Alcotest.(check bool) "attack outcome stable" true
    (r.Bca_adversary.Cz_attack.first_commit_round = None
    && r.Bca_adversary.Cz_attack.rounds_executed = 10)

(* ------------------------------------------------------------------ *)
(* Per-seed outcome goldens: seeds 1-50 of every agreement stack under   *)
(* the random scheduler, folded into one digest per stack.  A run        *)
(* contributes its agreed value, delivery count, highest round and every *)
(* party's commit round, so any change to send order, coin access order  *)
(* or round accounting moves the digest.                                 *)
(* ------------------------------------------------------------------ *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Threshold = Bca_crypto.Threshold
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Rng = Bca_util.Rng

let golden_seeds = List.init 50 (fun i -> i + 1)

let golden_inputs ~n seed = Array.init n (fun i -> Value.of_bool ((seed lsr i) land 1 = 1))

let outcome_line ~seed ~value ~deliveries ~rounds ~commit_rounds =
  Printf.sprintf "%d:%s/%d/%d/%s;" seed value deliveries rounds
    (String.concat ","
       (List.map (function Some r -> string_of_int r | None -> "-") commit_rounds))

let digest_of lines = Digest.to_hex (Digest.string (String.concat "" lines))

let spec_line ?(inputs = golden_inputs) spec ~cfg seed =
  let inputs = inputs ~n:cfg.Types.n seed in
  let seed64 = Int64.of_int seed in
  let driver =
    { Aba.drive =
        (fun ~coin:_ ~wire:_ exec parties ->
          match Async.run exec (Async.random_scheduler (Rng.create seed64)) with
          | `All_terminated ->
            let value =
              match parties.(0).Aba.committed () with Some v -> Value.to_string v | None -> "-"
            in
            outcome_line ~seed ~value ~deliveries:(Async.deliveries exec)
              ~rounds:(Array.fold_left (fun acc p -> max acc (p.Aba.round ())) 0 parties)
              ~commit_rounds:(Array.to_list (Array.map (fun p -> p.Aba.commit_round ()) parties))
          | `Quiescent | `Limit | `Stopped -> Alcotest.failf "seed %d did not terminate" seed) }
  in
  match Aba.run_custom ~seed:seed64 spec ~cfg ~inputs ~driver with
  | Ok line -> line
  | Error e -> Alcotest.failf "seed %d: %s" seed e

let crash_cfg = Types.cfg ~n:5 ~t:2

let byz_cfg = Types.cfg ~n:4 ~t:1

let spec_goldens =
  [ ("crash-strong", Aba.Crash_strong, crash_cfg, "2326a53b8f92f9a2d251028157b648b4");
    ("crash-weak", Aba.Crash_weak 0.25, crash_cfg, "dddc5c00ddfa78a95d4031239e50344e");
    ("crash-local", Aba.Crash_local, crash_cfg, "388917ff25ecef4f6b05942495b07ae6");
    ("byz-strong", Aba.Byz_strong, byz_cfg, "1c3eedf8f421febd6f0bafb7ead542a2");
    ("byz-weak", Aba.Byz_weak 0.25, byz_cfg, "e22bce8eb9ec7090f823c0b95d53bea8");
    ("byz-tsig", Aba.Byz_tsig, byz_cfg, "e1db14077dba29eb9cc32a5d3905ec30") ]

let test_spec_goldens () =
  List.iter
    (fun (name, spec, cfg, expected) ->
      Alcotest.(check string) name expected
        (digest_of (List.map (spec_line spec ~cfg) golden_seeds)))
    spec_goldens

(* The simulator benchmark's own shape: byz-strong at n=13, t=4 with
   alternating inputs (odd pids propose 1), seeds 1-50. *)
let alternating_inputs ~n _seed = Array.init n (fun i -> Value.of_bool (i land 1 = 1))

let test_n13_golden () =
  Alcotest.(check string) "byz-strong n=13" "d323d672f2510d7d3c46df99891f771d"
    (digest_of
       (List.map
          (spec_line ~inputs:alternating_inputs Aba.Byz_strong ~cfg:(Types.cfg ~n:13 ~t:4))
          golden_seeds))

(* Drive [n] parties built by [make] under the random scheduler; [summary]
   reads (committed, commit round, round) from each party's state. *)
let random_line ~seed ~make ~summary =
  let n = byz_cfg.Types.n in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, node, init = make pid in
        states.(pid) <- Some st;
        (node, List.map (fun m -> Node.Broadcast m) init))
  in
  match Async.run exec (Async.random_scheduler (Rng.create (Int64.of_int seed))) with
  | `All_terminated ->
    let views = Array.map (fun st -> summary (Option.get st)) states in
    let value = match views.(0) with Some v, _, _ -> Value.to_string v | None, _, _ -> "-" in
    outcome_line ~seed ~value ~deliveries:(Async.deliveries exec)
      ~rounds:(Array.fold_left (fun acc (_, _, r) -> max acc r) 0 views)
      ~commit_rounds:(Array.to_list (Array.map (fun (_, cr, _) -> cr) views))
  | `Quiescent | `Limit | `Stopped -> Alcotest.failf "seed %d did not terminate" seed

let ev_line (module S : Bca_core.Aa.S with type inst_params = Types.cfg) seed =
  let inputs = golden_inputs ~n:4 seed in
  let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:(Int64.of_int (seed + 1)) in
  let params = { S.cfg = byz_cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> byz_cfg) } in
  random_line ~seed
    ~make:(fun pid ->
      let st, init = S.create params ~me:pid ~input:inputs.(pid) in
      (st, S.node st, init))
    ~summary:(fun st -> (S.committed st, S.commit_round st, S.current_round st))

let ev_tsig_line seed =
  let module Aa_evt = Bca_core.Aa_ev_tsig in
  let inputs = golden_inputs ~n:4 seed in
  let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:(Int64.of_int (seed + 1)) in
  let setup, keys = Threshold.setup ~n:4 ~seed:(Int64.of_int (seed + 2)) in
  random_line ~seed
    ~make:(fun pid ->
      let params = { Aa_evt.cfg = byz_cfg; coin; setup; key = keys.(pid) } in
      let st, init = Aa_evt.create params ~me:pid ~input:inputs.(pid) in
      (st, Aa_evt.node st, init))
    ~summary:(fun st -> (Aa_evt.committed st, Aa_evt.commit_round st, Aa_evt.current_round st))

let test_ev_goldens () =
  Alcotest.(check string) "ev optimized" "10fb2b423b6f4d158a9a3e4964e7d2f2"
    (digest_of (List.map (ev_line (module Aba.Byz_ev_stack)) golden_seeds));
  Alcotest.(check string) "ev fresh rounds" "52612f55bae76ff90b639bad880600e7"
    (digest_of (List.map (ev_line (module Aba.Byz_ev_fresh_stack)) golden_seeds));
  Alcotest.(check string) "ev tsig" "f69878feed1be82cd18ef87c6fc41c37" (digest_of (List.map ev_tsig_line golden_seeds))

(* Per-seed common-subset goldens: seeds 1-50 of ACS at n=4 and n=7 under
   the random scheduler, with mixed proposals - a shared value from the
   parties whose seed bit is set, an own value from the rest - so the
   multivalued selection meets pluralities and ties.  A run contributes
   its outcome, delivery count and every replica's subset; the MVBA
   golden folds every replica's decided value over the same runs. *)

module Acs = Bca_rsm.Acs

let subset_proposal ~seed pid =
  if (seed lsr pid) land 1 = 1 then "shared" else Printf.sprintf "own-%d" pid

(* Run seed [seed] of ACS at [n] under the random scheduler: the outcome,
   the delivery count and every replica's state. *)
let run_subset ~n seed =
  let params =
    { Acs.cfg = Types.cfg ~n ~t:((n - 1) / 3); coin_seed = Int64.of_int ((seed * 7) + 1) }
  in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = Acs.create params ~me:pid ~proposal:(subset_proposal ~seed pid) in
        states.(pid) <- Some st;
        (Acs.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let outcome = Async.run exec (Async.random_scheduler (Rng.create (Int64.of_int seed))) in
  (outcome, Async.deliveries exec, Array.map Option.get states)

(* [show] renders each replica's result. *)
let subset_line ~show ~n seed =
  let outcome, deliveries, states = run_subset ~n seed in
  let outcome =
    match outcome with
    | `All_terminated -> "T"
    | `Quiescent -> "Q"
    | `Limit -> "L"
    | `Stopped -> "S"
  in
  Printf.sprintf "%d:%s/%d/%s;" seed outcome deliveries
    (String.concat "|" (Array.to_list (Array.map show states)))

let acs_line =
  subset_line ~show:(fun st ->
      match Acs.output st with
      | Some slots -> String.concat "," (List.map (fun (j, p) -> Printf.sprintf "%d=%s" j p) slots)
      | None -> "-")

let mvba_line = subset_line ~show:(fun st -> Option.value ~default:"-" (Acs.decided st))

let subset_goldens =
  [ ("acs n=4", acs_line ~n:4, "8aefefaa761fc9ff723afb1e4e51bcf1");
    ("acs n=7", acs_line ~n:7, "7967979ddc22a48b81f79a19a80e24ec");
    ("mvba n=4", mvba_line ~n:4, "22e834e01a3b68a94beb3d41ca3d685e");
    ("mvba n=7", mvba_line ~n:7, "4eff72c08160857c94ce31f269061a98") ]

(* What the goldens pin must be correct, not just stable: on every seed
   every replica terminates with one common subset of at least n - t
   genuine proposals, and one decided value that some accepted slot
   proposed - the shared value whenever every party proposed it. *)
let check_subset_seed ~n seed =
  let name what = Printf.sprintf "n=%d seed %d: %s" n seed what in
  let outcome, _, states = run_subset ~n seed in
  Alcotest.(check bool) (name "terminated") true (outcome = `All_terminated);
  match (Acs.output states.(0), Acs.decided states.(0)) with
  | Some o, Some d ->
    Array.iter
      (fun st ->
        Alcotest.(check (option (list (pair int string))))
          (name "one subset") (Some o) (Acs.output st);
        Alcotest.(check (option string)) (name "one decision") (Some d) (Acs.decided st))
      states;
    Alcotest.(check bool) (name "n - t slots") true
      (List.length o >= Types.quorum (Types.cfg ~n ~t:((n - 1) / 3)));
    List.iter
      (fun (j, p) -> Alcotest.(check string) (name "genuine payload") (subset_proposal ~seed j) p)
      o;
    Alcotest.(check bool) (name "decided an accepted proposal") true
      (List.exists (fun (_, p) -> String.equal p d) o);
    if
      List.for_all
        (fun pid -> String.equal (subset_proposal ~seed pid) "shared")
        (List.init n Fun.id)
    then Alcotest.(check string) (name "unanimity") "shared" d
  | _ -> Alcotest.fail (name "no output")

let test_subset_goldens () =
  List.iter (fun n -> List.iter (check_subset_seed ~n) golden_seeds) [ 4; 7 ];
  Alcotest.(check (list (pair string string)))
    "acs and mvba digests"
    (List.map (fun (name, _, expected) -> (name, expected)) subset_goldens)
    (List.map (fun (name, line, _) -> (name, digest_of (List.map line golden_seeds))) subset_goldens)

let test_ablation_means () =
  let on, off = Bca_experiments.Ablation.ev_optimizations ~runs:20 ~seed in
  check_mean "ev optimizations on" on 10.8;
  check_mean "ev optimizations off" off 11.8

let () =
  Alcotest.run "regression"
    [ ( "golden",
        [ Alcotest.test_case "table cells" `Quick test_table_cells;
          Alcotest.test_case "facade run" `Quick test_facade_run;
          Alcotest.test_case "attack replay" `Quick test_attack_replay;
          Alcotest.test_case "per-seed stack outcomes" `Quick test_spec_goldens;
          Alcotest.test_case "per-seed byz-strong n=13 outcomes" `Quick test_n13_golden;
          Alcotest.test_case "per-seed EV outcomes" `Quick test_ev_goldens;
          Alcotest.test_case "per-seed ACS and MVBA outcomes" `Quick test_subset_goldens;
          Alcotest.test_case "ablation means" `Quick test_ablation_means ] ) ]
