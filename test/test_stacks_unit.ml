(* Unit tests of the agreement layers themselves (message-by-message):
   round advancement, estimate transitions, commit conditions, the
   termination thresholds, and the EVBCA-TSig proof plumbing. *)

module Value = Bca_util.Value
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Threshold = Bca_crypto.Threshold
module B = Bca_core.Bca_crash
module Stack = Bca_core.Aba.Crash_strong_stack
module Byz_stack = Bca_core.Aba.Byz_strong_stack
module Evt = Bca_core.Evbca_tsig

let cfg = Types.cfg ~n:3 ~t:1

let mk_coin seed = Coin.create Coin.Strong ~n:3 ~degree:1 ~seed

(* Drive one party of AA-1/2 over BCA-Crash by hand: n = 3, t = 1. *)
let test_round_advance_on_decision () =
  let coin = mk_coin 1L in
  let params = { Stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let p, init = Stack.create params ~me:0 ~input:Value.V0 in
  Alcotest.(check int) "starts in round 1" 1 (Stack.current_round p);
  Alcotest.(check int) "one initial broadcast" 1 (List.length init);
  (* deliver a full unanimous round-1 BCA by hand: vals then echoes *)
  let deliver from m = Stack.handle p ~from (Stack.Bca (1, m)) in
  ignore (deliver 0 (B.MVal Value.V0) : Stack.msg list);
  let out = deliver 1 (B.MVal Value.V0) in
  Alcotest.(check bool) "echo emitted at quorum" true
    (List.exists (function Stack.Bca (1, B.MEcho _) -> true | _ -> false) out);
  ignore (deliver 0 (B.MEcho (Types.Val Value.V0)) : Stack.msg list);
  let out = deliver 1 (B.MEcho (Types.Val Value.V0)) in
  (* decision reached: the party advances and broadcasts round 2's val *)
  Alcotest.(check int) "advanced to round 2" 2 (Stack.current_round p);
  Alcotest.(check bool) "round-2 val broadcast" true
    (List.exists (function Stack.Bca (2, B.MVal _) -> true | _ -> false) out);
  (* estimate keeps the decided value *)
  Alcotest.(check bool) "est = decided value" true (Value.equal (Stack.est p) Value.V0)

let test_commit_on_coin_match () =
  (* find a seed whose round-1 coin is V0, then decide V0: must commit *)
  let rec find s =
    let coin = mk_coin (Int64.of_int s) in
    if Coin.value_for coin ~round:1 ~pid:0 = Value.V0 then coin else find (s + 1)
  in
  let coin = find 0 in
  let params = { Stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let p, _ = Stack.create params ~me:0 ~input:Value.V0 in
  let deliver from m = Stack.handle p ~from (Stack.Bca (1, m)) in
  ignore (deliver 0 (B.MVal Value.V0) : Stack.msg list);
  ignore (deliver 1 (B.MVal Value.V0) : Stack.msg list);
  ignore (deliver 0 (B.MEcho (Types.Val Value.V0)) : Stack.msg list);
  let out = deliver 1 (B.MEcho (Types.Val Value.V0)) in
  Alcotest.(check bool) "committed" true (Stack.committed p = Some Value.V0);
  Alcotest.(check bool) "committed broadcast emitted" true
    (List.exists (function Stack.Committed _ -> true | _ -> false) out);
  Alcotest.(check bool) "not yet terminated (awaits receipt)" false (Stack.terminated p);
  (* its own committed message loops back: now it terminates *)
  ignore (Stack.handle p ~from:0 (Stack.Committed Value.V0) : Stack.msg list);
  Alcotest.(check bool) "terminated on receipt" true (Stack.terminated p)

let test_bot_adopts_coin () =
  let coin = mk_coin 3L in
  let c1 = Coin.value_for coin ~round:1 ~pid:0 in
  let params = { Stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let p, _ = Stack.create params ~me:0 ~input:Value.V0 in
  let deliver from m = Stack.handle p ~from (Stack.Bca (1, m)) in
  ignore (deliver 0 (B.MVal Value.V0) : Stack.msg list);
  ignore (deliver 1 (B.MVal Value.V1) : Stack.msg list);
  ignore (deliver 0 (B.MEcho Types.Bot) : Stack.msg list);
  ignore (deliver 1 (B.MEcho Types.Bot) : Stack.msg list);
  Alcotest.(check bool) "bottom decision adopts the coin" true
    (Value.equal (Stack.est p) c1);
  Alcotest.(check bool) "no commitment" true (Stack.committed p = None)

let test_crash_mode_single_committed_suffices () =
  let coin = mk_coin 4L in
  let params = { Stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let p, _ = Stack.create params ~me:0 ~input:Value.V0 in
  let out = Stack.handle p ~from:2 (Stack.Committed Value.V1) in
  Alcotest.(check bool) "commits on one committed message" true
    (Stack.committed p = Some Value.V1);
  Alcotest.(check bool) "rebroadcasts" true
    (List.exists (function Stack.Committed Value.V1 -> true | _ -> false) out);
  Alcotest.(check bool) "terminates" true (Stack.terminated p)

let byz_cfg = Types.cfg ~n:4 ~t:1

let test_byz_mode_committed_thresholds () =
  let coin = Coin.create Coin.Strong ~n:4 ~degree:1 ~seed:5L in
  let params =
    { Byz_stack.cfg = byz_cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> byz_cfg) }
  in
  let p, _ = Byz_stack.create params ~me:0 ~input:Value.V0 in
  (* one committed message - possibly a Byzantine lie - must not commit *)
  ignore (Byz_stack.handle p ~from:3 (Byz_stack.Committed Value.V1) : Byz_stack.msg list);
  Alcotest.(check bool) "t committed messages insufficient" true
    (Byz_stack.committed p = None);
  (* a second, matching one reaches t+1: commit and rebroadcast *)
  let out = Byz_stack.handle p ~from:2 (Byz_stack.Committed Value.V1) in
  Alcotest.(check bool) "t+1 commits" true (Byz_stack.committed p = Some Value.V1);
  Alcotest.(check bool) "rebroadcast" true
    (List.exists (function Byz_stack.Committed _ -> true | _ -> false) out);
  Alcotest.(check bool) "2t+1 needed to terminate" false (Byz_stack.terminated p);
  ignore (Byz_stack.handle p ~from:1 (Byz_stack.Committed Value.V1) : Byz_stack.msg list);
  Alcotest.(check bool) "terminates at 2t+1" true (Byz_stack.terminated p)

let test_byz_mode_mixed_committed_lies () =
  let coin = Coin.create Coin.Strong ~n:4 ~degree:1 ~seed:6L in
  let params =
    { Byz_stack.cfg = byz_cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> byz_cfg) }
  in
  let p, _ = Byz_stack.create params ~me:0 ~input:Value.V0 in
  (* two committed messages with DIFFERENT values never reach t+1 for either *)
  ignore (Byz_stack.handle p ~from:3 (Byz_stack.Committed Value.V1) : Byz_stack.msg list);
  ignore (Byz_stack.handle p ~from:2 (Byz_stack.Committed Value.V0) : Byz_stack.msg list);
  Alcotest.(check bool) "mixed lies do not commit" true (Byz_stack.committed p = None)

(* ------------------------------------------------------------------ *)
(* AA-eps (Algorithm 2): grade-driven transitions                       *)
(* ------------------------------------------------------------------ *)

module Weak = Bca_core.Aba.Crash_weak_stack
module G = Bca_core.Gbca_crash

let weak_party seed =
  let coin = Coin.create (Coin.Eps 0.25) ~n:3 ~degree:1 ~seed in
  let params = { Weak.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  let p, _ = Weak.create params ~me:0 ~input:Value.V0 in
  (p, coin)

(* feed a full round-1 GBCA by hand with chosen echo2 outcomes *)
let drive_round1 p echo2s =
  List.iteri
    (fun i cv -> ignore (Weak.handle p ~from:i (Weak.Bca (1, G.MEcho2 cv)) : Weak.msg list))
    echo2s

let test_weak_grade2_commits_without_coin () =
  (* n = 3, t = 1: the echo2 quorum is n - t = 2 *)
  let p, _ = weak_party 21L in
  drive_round1 p [ Types.Val Value.V1 ];
  Alcotest.(check bool) "not yet" true (Weak.committed p = None);
  ignore (Weak.handle p ~from:1 (Weak.Bca (1, G.MEcho2 (Types.Val Value.V1))) : Weak.msg list);
  (* grade 2 commits regardless of the coin value *)
  Alcotest.(check bool) "grade 2 commits" true (Weak.committed p = Some Value.V1)

let test_weak_grade1_adopts_without_commit () =
  let p, _ = weak_party 22L in
  drive_round1 p [ Types.Val Value.V1; Types.Bot ];
  Alcotest.(check bool) "no commit at grade 1" true (Weak.committed p = None);
  Alcotest.(check bool) "adopts the value" true (Value.equal (Weak.est p) Value.V1);
  Alcotest.(check int) "advanced" 2 (Weak.current_round p)

let test_weak_grade0_adopts_coin () =
  let p, coin = weak_party 23L in
  let c1 = Coin.value_for coin ~round:1 ~pid:0 in
  drive_round1 p [ Types.Bot; Types.Bot ];
  Alcotest.(check bool) "adopts the coin" true (Value.equal (Weak.est p) c1);
  Alcotest.(check bool) "no commit" true (Weak.committed p = None)

(* ------------------------------------------------------------------ *)
(* EVBCA-TSig proof plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_evt_carry_accepted () =
  let setup, keys = Threshold.setup ~n:4 ~seed:7L in
  let cfg = Types.cfg ~n:4 ~t:1 in
  let mk pid round = Evt.create { Evt.cfg; setup; key = keys.(pid); round } ~me:pid in
  (* a genuine round-1 echo3 certificate justifies a round-2 Carry echo2 *)
  let shares =
    List.init 3 (fun i -> Threshold.sign keys.(i) ~tag:(Evt.echo3_tag ~round:1 Value.V0))
  in
  let sigma =
    Option.get (Threshold.combine setup ~k:3 ~tag:(Evt.echo3_tag ~round:1 Value.V0) shares)
  in
  let p = mk 0 2 in
  let out = Evt.start p ~input:Value.V0 ~ctx:(Evt.Carry (Value.V0, sigma)) in
  Alcotest.(check bool) "carry opens with a certified echo2" true
    (List.exists (function Evt.MEcho2 (Value.V0, Evt.Prev _) -> true | _ -> false) out);
  (* a recipient in round 2 accepts that echo2 *)
  let q = mk 1 2 in
  ignore (Evt.start q ~input:Value.V1 ~ctx:Evt.Fresh : Evt.msg list);
  ignore (Evt.handle q ~from:0 (Evt.MEcho2 (Value.V0, Evt.Prev sigma)) : Evt.msg list);
  (* two more carry votes give q its echo3 *)
  let out2 = Evt.handle q ~from:2 (Evt.MEcho2 (Value.V0, Evt.Prev sigma)) in
  ignore out2;
  let out3 = Evt.handle q ~from:3 (Evt.MEcho2 (Value.V0, Evt.Prev sigma)) in
  Alcotest.(check bool) "echo3 from certified votes" true
    (List.exists (function Evt.MEcho3 (Types.Val Value.V0, _, _) -> true | _ -> false)
       (out2 @ out3))

let test_evt_wrong_round_prev_rejected () =
  let setup, keys = Threshold.setup ~n:4 ~seed:8L in
  let cfg = Types.cfg ~n:4 ~t:1 in
  (* a round-1 certificate does not validate inside round 3 (only r-1) *)
  let shares =
    List.init 3 (fun i -> Threshold.sign keys.(i) ~tag:(Evt.echo3_tag ~round:1 Value.V0))
  in
  let sigma =
    Option.get (Threshold.combine setup ~k:3 ~tag:(Evt.echo3_tag ~round:1 Value.V0) shares)
  in
  let q = Evt.create { Evt.cfg; setup; key = keys.(1); round = 3 } ~me:1 in
  ignore (Evt.start q ~input:Value.V1 ~ctx:Evt.Fresh : Evt.msg list);
  let out = Evt.handle q ~from:0 (Evt.MEcho2 (Value.V0, Evt.Prev sigma)) in
  Alcotest.(check int) "stale certificate rejected" 0 (List.length out)

let test_evt_round1_prev_rejected () =
  let setup, keys = Threshold.setup ~n:4 ~seed:9L in
  let cfg = Types.cfg ~n:4 ~t:1 in
  (* round 1 has no previous round: any Prev proof is invalid there *)
  let shares =
    List.init 3 (fun i -> Threshold.sign keys.(i) ~tag:(Evt.echo3_tag ~round:0 Value.V0))
  in
  let sigma =
    Option.get (Threshold.combine setup ~k:3 ~tag:(Evt.echo3_tag ~round:0 Value.V0) shares)
  in
  let q = Evt.create { Evt.cfg; setup; key = keys.(1); round = 1 } ~me:1 in
  ignore (Evt.start q ~input:Value.V1 ~ctx:Evt.Fresh : Evt.msg list);
  let out = Evt.handle q ~from:0 (Evt.MEcho2 (Value.V0, Evt.Prev sigma)) in
  Alcotest.(check int) "no Prev proofs in round 1" 0 (List.length out)

(* ------------------------------------------------------------------ *)
(* ACS and RSM internals                                               *)
(* ------------------------------------------------------------------ *)

let test_acs_buffers_early_aba_traffic () =
  let acs_cfg = Types.cfg ~n:4 ~t:1 in
  let params = { Bca_rsm.Acs.cfg = acs_cfg; coin_seed = 10L } in
  let p, _ = Bca_rsm.Acs.create params ~me:0 ~proposal:"x" in
  (* ABA traffic for slot 2 before its RBC delivered: buffered, no crash *)
  let m = Bca_rsm.Acs.Aba (2, Bca_rsm.Acs.Aba_slot.Committed Value.V1) in
  let out = Bca_rsm.Acs.handle p ~from:1 m in
  Alcotest.(check int) "buffered silently" 0 (List.length out);
  Alcotest.(check bool) "no output yet" true (Bca_rsm.Acs.output p = None)

let test_rsm_epoch_buffering () =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let params =
    Bca_rsm.Rsm.mk_params ~cfg ~coin_seed:11L ~epochs:16 ~window:2 ~buffer_slack:2 ()
  in
  let p, _ = Bca_rsm.Rsm.create params ~me:0 in
  Alcotest.(check int) "nothing committed" 0 (Bca_rsm.Rsm.committed_epochs p);
  Alcotest.(check int) "window open" 2 (Bca_rsm.Rsm.in_flight p);
  (* a message just past the window is buffered, not dropped or crashed on *)
  let m =
    Bca_rsm.Rsm.Epoch (3, Bca_rsm.Acs.Rbc (1, Bca_baselines.Bracha.Echo "future"))
  in
  let out = Bca_rsm.Rsm.handle p ~from:1 m in
  Alcotest.(check int) "buffered" 0 (List.length out);
  Alcotest.(check int) "held" 1 (Bca_rsm.Rsm.buffered_msgs p);
  (* far past the buffering horizon: shed, not held *)
  let far =
    Bca_rsm.Rsm.Epoch (9, Bca_rsm.Acs.Rbc (1, Bca_baselines.Bracha.Echo "far"))
  in
  let out = Bca_rsm.Rsm.handle p ~from:1 far in
  Alcotest.(check int) "shed silently" 0 (List.length out);
  Alcotest.(check int) "not held" 1 (Bca_rsm.Rsm.buffered_msgs p);
  Alcotest.(check (list string)) "log empty" [] (Bca_rsm.Rsm.log p)

let () =
  Alcotest.run "stacks_unit"
    [ ( "aa-strong",
        [ Alcotest.test_case "round advance" `Quick test_round_advance_on_decision;
          Alcotest.test_case "commit on coin match" `Quick test_commit_on_coin_match;
          Alcotest.test_case "bottom adopts coin" `Quick test_bot_adopts_coin;
          Alcotest.test_case "crash committed threshold" `Quick
            test_crash_mode_single_committed_suffices;
          Alcotest.test_case "byz committed thresholds" `Quick
            test_byz_mode_committed_thresholds;
          Alcotest.test_case "byz mixed committed lies" `Quick
            test_byz_mode_mixed_committed_lies ] );
      ( "aa-weak",
        [ Alcotest.test_case "grade 2 commits" `Quick test_weak_grade2_commits_without_coin;
          Alcotest.test_case "grade 1 adopts" `Quick test_weak_grade1_adopts_without_commit;
          Alcotest.test_case "grade 0 adopts coin" `Quick test_weak_grade0_adopts_coin ] );
      ( "evbca-tsig",
        [ Alcotest.test_case "carry accepted" `Quick test_evt_carry_accepted;
          Alcotest.test_case "wrong-round prev rejected" `Quick
            test_evt_wrong_round_prev_rejected;
          Alcotest.test_case "round-1 prev rejected" `Quick test_evt_round1_prev_rejected ] );
      ( "acs/rsm",
        [ Alcotest.test_case "acs buffers early traffic" `Quick
            test_acs_buffers_early_aba_traffic;
          Alcotest.test_case "rsm epoch buffering" `Quick test_rsm_epoch_buffering ] ) ]
