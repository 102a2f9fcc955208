(* Coverage-guided fuzzer tests: mutation-operator determinism, coverage
   algebra, the plan codec over tail-reseed schedules, corpus file
   round-trips, adaptive-strategy firing discipline, campaign determinism
   and the broken-stack self-test (the reintroduced Cachin-Zanolini AUX
   bug must be found, and the find must replay). *)

module Rng = Bca_util.Rng
module Chaos = Bca_adversary.Chaos
module Mutate = Bca_adversary.Mutate
module Coverage = Bca_obs.Coverage
module Fuzz = Bca_experiments.Fuzz_campaign

let gen_plan seed =
  Chaos.gen (Rng.create seed) ~n:4 ~max_faults:1 ~allow_corrupt:true

(* ------------------------------------------------------------------ *)
(* Mutation operators are pure functions of the RNG stream              *)
(* ------------------------------------------------------------------ *)

let test_mutate_deterministic () =
  let parent = gen_plan 5L in
  let child rng_seed = Mutate.mutate (Rng.create rng_seed) parent in
  Alcotest.(check string)
    "same RNG seed, same child"
    (Chaos.plan_to_string (child 9L))
    (Chaos.plan_to_string (child 9L));
  (* different streams disagree somewhere within a few draws - equality
     here would mean the operators ignore their RNG *)
  let distinct =
    List.exists
      (fun s -> Chaos.plan_to_string (child s) <> Chaos.plan_to_string (child 9L))
      [ 10L; 11L; 12L; 13L ]
  in
  Alcotest.(check bool) "mutation actually draws from the RNG" true distinct

let test_splice_deterministic () =
  let a = gen_plan 5L and b = gen_plan 6L in
  let s seed = Chaos.plan_to_string (Mutate.splice (Rng.create seed) a b) in
  Alcotest.(check string) "same RNG seed, same crossover" (s 3L) (s 3L)

(* ------------------------------------------------------------------ *)
(* Coverage algebra (qcheck)                                            *)
(* ------------------------------------------------------------------ *)

let gen_coverage : Coverage.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let key =
    oneofl
      [ "round:r1"; "round:r4"; "quorum:echo:r1"; "coin:r2:1"; "commit:r1:0";
        "net:drop"; "nm:split-view"; "mc:depth" ]
  in
  let entry = pair key (int_bound 10_000) in
  map
    (List.fold_left (fun acc (k, v) -> Coverage.add_count acc k v) Coverage.empty)
    (list_size (int_bound 20) entry)

let cov_equal a b = Coverage.to_list a = Coverage.to_list b

let prop_merge_commutative =
  QCheck2.Test.make ~count:300 ~name:"coverage merge commutes"
    QCheck2.Gen.(pair gen_coverage gen_coverage)
    (fun (a, b) -> cov_equal (Coverage.merge a b) (Coverage.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~count:300 ~name:"coverage merge associates"
    QCheck2.Gen.(triple gen_coverage gen_coverage gen_coverage)
    (fun (a, b, c) ->
      cov_equal
        (Coverage.merge a (Coverage.merge b c))
        (Coverage.merge (Coverage.merge a b) c))

let prop_merge_idempotent_absorbing =
  QCheck2.Test.make ~count:300 ~name:"merge is idempotent and absorbs into novelty 0"
    gen_coverage
    (fun a ->
      cov_equal (Coverage.merge a a) a
      && Coverage.novel ~base:a a = 0
      && cov_equal (Coverage.merge a Coverage.empty) a)

(* ------------------------------------------------------------------ *)
(* Plan codec round-trips, including tail-reseed schedules              *)
(* ------------------------------------------------------------------ *)

let test_codec_reseeds () =
  let plan =
    { (gen_plan 7L) with Chaos.reseeds = [ (17, 0xdeadbeefL); (400, -3L) ] }
  in
  let s = Chaos.plan_to_string plan in
  match Chaos.plan_of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan' ->
    Alcotest.(check string) "round-trip is identity" s (Chaos.plan_to_string plan');
    Alcotest.(check int) "reseeds survived" 2 (List.length plan'.Chaos.reseeds)

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"generated plans round-trip through the codec"
    QCheck2.Gen.(pair (int_range 1 10_000) (list_size (int_bound 3) (pair (int_bound 999) int64)))
    (fun (seed, reseeds) ->
      let plan = { (gen_plan (Int64.of_int seed)) with Chaos.reseeds } in
      match Chaos.plan_of_string (Chaos.plan_to_string plan) with
      | Ok plan' -> Chaos.plan_to_string plan = Chaos.plan_to_string plan'
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Corpus files                                                         *)
(* ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  let target = Fuzz.cz in
  let corpus = Fuzz.seed_corpus ~seed:0x99L target in
  Alcotest.(check bool) "seed corpus is non-trivial" true (List.length corpus >= 4);
  let path = Filename.temp_file "bca_fuzz" ".corpus" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fuzz.save_corpus path corpus;
      match Fuzz.load_corpus path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok corpus' ->
        Alcotest.(check (list string))
          "names survive" (List.map fst corpus) (List.map fst corpus');
        List.iter2
          (fun (_, p) (_, p') ->
            Alcotest.(check string)
              "plans survive" (Chaos.plan_to_string p) (Chaos.plan_to_string p'))
          corpus corpus')

let test_corpus_rejects_garbage () =
  let path = Filename.temp_file "bca_fuzz" ".corpus" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "bca-corpus 1\nok\tnot-a-plan\n";
      close_out oc;
      match Fuzz.load_corpus path with
      | Error e ->
        Alcotest.(check bool)
          "error pinpoints the line" true
          (String.length e > 0
          && (let has_2 = ref false in
              String.iter (fun c -> if c = '2' then has_2 := true) e;
              !has_2))
      | Ok _ -> Alcotest.fail "garbage corpus accepted")

(* ------------------------------------------------------------------ *)
(* Adaptive corruption fires at the coin reveal, and only then          *)
(* ------------------------------------------------------------------ *)

let trial_with_adaptive a_round =
  let target = List.nth Fuzz.six 3 (* byz/strong, corruption allowed *) in
  let plan =
    { (Chaos.silent ~n:target.Fuzz.tg_n) with
      Chaos.adaptive = [ Chaos.Corrupt_at_coin_reveal { a_round; a_rate = 0.6 } ];
      fault_budget = 1
    }
  in
  target.Fuzz.tg_run ~capture:None ~plan ~seed:0x51L

let test_adaptive_fires_at_reveal () =
  (* a_round = 0 matches any round's first coin access: the strategy must
     fire on the very first reveal the run produces *)
  let t = trial_with_adaptive 0 in
  Alcotest.(check bool)
    "corrupt-at-coin-reveal fired" true
    (t.Fuzz.t_chaos.Chaos.adaptive_corruptions >= 1)

let test_adaptive_needs_its_trigger () =
  (* round 99 is never reached, so the armed strategy must never fire *)
  let t = trial_with_adaptive 99 in
  Alcotest.(check int)
    "no reveal at round 99, no corruption" 0
    t.Fuzz.t_chaos.Chaos.adaptive_corruptions

(* ------------------------------------------------------------------ *)
(* Campaign determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_campaign_deterministic () =
  let target = List.nth Fuzz.six 3 in
  let go () = Fuzz.run ~mode:Fuzz.Guided ~target ~trials:48 ~seed:0x77L () in
  let a = go () and b = go () in
  Alcotest.(check int) "same trial count" a.Fuzz.c_trials b.Fuzz.c_trials;
  Alcotest.(check int) "same commits" a.Fuzz.c_committed b.Fuzz.c_committed;
  Alcotest.(check int) "same deliveries" a.Fuzz.c_deliveries b.Fuzz.c_deliveries;
  Alcotest.(check bool)
    "same coverage map" true
    (cov_equal a.Fuzz.c_coverage b.Fuzz.c_coverage);
  Alcotest.(check (list string))
    "same corpus lineage"
    (List.map fst a.Fuzz.c_corpus)
    (List.map fst b.Fuzz.c_corpus)

(* ------------------------------------------------------------------ *)
(* Broken-stack self-test: the reintroduced AUX bug must be found       *)
(* ------------------------------------------------------------------ *)

let test_finds_reintroduced_aux_bug () =
  let c = Fuzz.run ~mode:Fuzz.Guided ~target:Fuzz.cz_buggy ~trials:500 ~seed:0x42L () in
  match c.Fuzz.c_found with
  | None -> Alcotest.fail "guided campaign missed the reintroduced AUX bug in 500 trials"
  | Some f ->
    Alcotest.(check bool) "found within budget" true (f.Fuzz.f_trial <= 500);
    Alcotest.(check bool)
      "the find is a safety violation" true
      (f.Fuzz.f_violations <> []);
    (* the (plan, seed) pair alone must reproduce it *)
    let t =
      Fuzz.replay ~target:Fuzz.cz_buggy ~plan:f.Fuzz.f_plan ~seed:f.Fuzz.f_seed ()
    in
    Alcotest.(check bool)
      "replay reproduces the violation" true
      (Fuzz.safety_violations t <> [])

let test_fixed_cz_survives () =
  (* same budget against the fixed reconstruction: nothing may be found *)
  let c = Fuzz.run ~mode:Fuzz.Guided ~target:Fuzz.cz ~trials:200 ~seed:0x42L () in
  Alcotest.(check bool) "no violation on the fixed stack" true (c.Fuzz.c_found = None)

(* ------------------------------------------------------------------ *)
(* Gates: the real stacks survive a guided smoke, and guided search      *)
(* rediscovers the AUX bug far faster than blind search                 *)
(* ------------------------------------------------------------------ *)

(* 64 guided trials per real stack, target i at seed 20260706 + 31 + i:
   these stacks are believed correct, so any find is a regression. *)
let test_smoke_six_stacks () =
  List.iteri
    (fun i (tg : Fuzz.target) ->
      let c =
        Fuzz.run ~mode:Fuzz.Guided ~target:tg ~trials:64
          ~seed:(Int64.add 20260706L (Int64.of_int (31 + i)))
          ()
      in
      match c.Fuzz.c_found with
      | None -> ()
      | Some f -> Alcotest.failf "%s: %a" tg.Fuzz.tg_name Fuzz.pp_found f)
    Fuzz.six

(* Trials-to-find the reintroduced AUX bug, median over 5 root seeds at
   the pinned root 0x42: guided must find it within 500 trials and beat
   the blind baseline by at least 10x. *)
let test_rediscovery_gate () =
  let r = Fuzz.rediscover ~seeds:5 ~cap:3_000 ~seed:0x42L () in
  if r.Fuzz.r_speedup < 10.0 || r.Fuzz.r_guided_median > 500.0 then
    Alcotest.failf "rediscovery gate (>= 10x, median <= 500) missed:@.%a" Fuzz.pp_rediscovery r

let () =
  Alcotest.run "fuzz"
    [ ( "mutate",
        [ Alcotest.test_case "mutate is RNG-deterministic" `Quick test_mutate_deterministic;
          Alcotest.test_case "splice is RNG-deterministic" `Quick test_splice_deterministic
        ] );
      ( "coverage",
        [ QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_idempotent_absorbing ] );
      ( "codec",
        [ Alcotest.test_case "reseed schedules round-trip" `Quick test_codec_reseeds;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip ] );
      ( "corpus",
        [ Alcotest.test_case "save/load round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "parse error pinpoints line" `Quick
            test_corpus_rejects_garbage ] );
      ( "adaptive",
        [ Alcotest.test_case "fires at the coin reveal" `Quick test_adaptive_fires_at_reveal;
          Alcotest.test_case "silent without its trigger" `Quick
            test_adaptive_needs_its_trigger ] );
      ( "campaign",
        [ Alcotest.test_case "pure function of its arguments" `Quick
          test_campaign_deterministic ] );
      ( "self-test",
        [ Alcotest.test_case "finds the reintroduced CZ AUX bug" `Quick
            test_finds_reintroduced_aux_bug;
          Alcotest.test_case "fixed CZ survives the same budget" `Quick
            test_fixed_cz_survives ] );
      ( "gate",
        [ Alcotest.test_case "guided smoke on the six stacks finds nothing" `Quick
            test_smoke_six_stacks;
          Alcotest.test_case "rediscovery: >= 10x blind, guided median <= 500" `Quick
            test_rediscovery_gate ] ) ]
