(* Parallel Monte-Carlo driver: determinism under parallelism.

   The contract: the sample vector depends only on the root seed, never on
   the domain count.  Seeds are pre-drawn from the root SplitMix64 stream in
   run order and each domain evaluates a fixed block, so 1, 2 or 7 domains
   must produce bit-identical results - and identical to the inline
   one-domain driver. *)

module Mc = Bca_experiments.Mc
module Rng = Bca_util.Rng
module Summary = Bca_util.Summary
module Types = Bca_core.Types
module Aba = Bca_core.Aba
module Value = Bca_util.Value

let test_run_seeds () =
  let seeds = Mc.run_seeds ~runs:10 ~seed:99L in
  let rng = Rng.create 99L in
  for i = 0 to 9 do
    Alcotest.(check int64)
      (Printf.sprintf "seed %d drawn from the root stream in order" i)
      (Rng.int64 rng) seeds.(i)
  done

(* A cheap but seed-sensitive experiment. *)
let synthetic ~seed =
  let rng = Rng.create seed in
  let acc = ref 0.0 in
  for _ = 1 to 50 do
    acc := !acc +. Rng.float rng
  done;
  !acc

(* A real one: a full Byzantine ABA execution per seed. *)
let aba_deliveries ~seed =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let inputs = [| Value.V0; Value.V1; Value.V1; Value.V0 |] in
  match Aba.run ~seed Aba.Byz_strong ~cfg ~inputs with
  | Ok r -> float_of_int r.Aba.deliveries
  | Error e -> Alcotest.fail e

let check_float_arrays name a b =
  Alcotest.(check (array (float 0.0))) name a b

let test_domain_count_invariance () =
  let runs = 23 and seed = 7L in
  let base = Mc.map ~domains:1 ~runs ~seed synthetic in
  List.iter
    (fun d ->
      check_float_arrays
        (Printf.sprintf "synthetic: %d domains == sequential" d)
        base
        (Mc.map ~domains:d ~runs ~seed synthetic))
    [ 2; 3; 7 ];
  let base = Mc.map ~domains:1 ~runs:12 ~seed:11L aba_deliveries in
  List.iter
    (fun d ->
      check_float_arrays
        (Printf.sprintf "aba: %d domains == sequential" d)
        base
        (Mc.map ~domains:d ~runs:12 ~seed:11L aba_deliveries))
    [ 3; 5 ]

let test_matches_legacy_driver () =
  let runs = 17 and seed = 4242L in
  let a = Mc.summarize ~domains:1 ~runs ~seed synthetic in
  let b = Mc.summarize ~domains:4 ~runs ~seed synthetic in
  Alcotest.(check (float 0.0)) "mean" a.Summary.mean b.Summary.mean;
  Alcotest.(check (float 0.0)) "stddev" a.Summary.stddev b.Summary.stddev;
  Alcotest.(check (float 0.0)) "min" a.Summary.min b.Summary.min;
  Alcotest.(check (float 0.0)) "max" a.Summary.max b.Summary.max;
  Alcotest.(check int) "runs" a.Summary.runs b.Summary.runs

let test_oversubscribed_domains () =
  (* more domains than runs must neither crash nor change results *)
  let base = Mc.map ~domains:1 ~runs:3 ~seed:5L synthetic in
  check_float_arrays "domains > runs" base (Mc.map ~domains:8 ~runs:3 ~seed:5L synthetic)

let () =
  Alcotest.run "mc"
    [ ( "determinism",
        [ Alcotest.test_case "seed derivation" `Quick test_run_seeds;
          Alcotest.test_case "domain-count invariance" `Quick test_domain_count_invariance;
          Alcotest.test_case "matches legacy sequential driver" `Quick test_matches_legacy_driver;
          Alcotest.test_case "domains > runs" `Quick test_oversubscribed_domains ] ) ]
