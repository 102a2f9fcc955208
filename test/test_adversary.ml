(* Tests for the adversary toolkit's fault wrappers (the attack drivers
   themselves are covered in test_attacks). *)

module Faults = Bca_adversary.Faults
module Node = Bca_netsim.Node

let test_mute () =
  let received = ref 0 in
  let inner =
    Node.make
      ~receive:(fun ~src:_ _ ->
        incr received;
        [ Node.Broadcast "reply" ])
      ~terminated:(fun () -> false)
      ()
  in
  let muted = Faults.mute inner in
  let out = muted.Node.receive ~src:0 "ping" in
  Alcotest.(check int) "still processes" 1 !received;
  Alcotest.(check int) "never sends" 0 (List.length out)

(* Regression: the wrappers used to discard the inner node's [tick]
   emissions outright (Node.make's default tick), silencing lockstep-driven
   parties even while alive. *)
let test_crash_after_tick_until_crash () =
  let ticks = ref 0 in
  let inner =
    Node.make
      ~receive:(fun ~src:_ _ -> [])
      ~terminated:(fun () -> false)
      ~tick:(fun ~step ->
        incr ticks;
        [ Node.Broadcast (Printf.sprintf "tick%d" step) ])
      ()
  in
  let crashed = Faults.crash_after ~deliveries:2 inner in
  Alcotest.(check int) "tick passes through while alive" 1
    (List.length (crashed.Node.tick ~step:1));
  ignore (crashed.Node.receive ~src:0 "m1" : string Node.emit list);
  Alcotest.(check int) "still alive after first delivery" 1
    (List.length (crashed.Node.tick ~step:2));
  ignore (crashed.Node.receive ~src:0 "m2" : string Node.emit list);
  Alcotest.(check int) "silent after the crash" 0
    (List.length (crashed.Node.tick ~step:3));
  Alcotest.(check int) "inner ticked only while alive" 2 !ticks

let test_crash_after_zero_tick_silent () =
  let inner =
    Node.make
      ~receive:(fun ~src:_ _ -> [])
      ~terminated:(fun () -> false)
      ~tick:(fun ~step:_ -> [ Node.Broadcast "t" ])
      ()
  in
  let crashed = Faults.crash_after ~deliveries:0 inner in
  Alcotest.(check int) "crashed-from-birth party never ticks" 0
    (List.length (crashed.Node.tick ~step:1))

let test_mute_tick_advances_state () =
  let ticks = ref 0 in
  let inner =
    Node.make
      ~receive:(fun ~src:_ _ -> [])
      ~terminated:(fun () -> false)
      ~tick:(fun ~step:_ ->
        incr ticks;
        [ Node.Broadcast "t" ])
      ()
  in
  let muted = Faults.mute inner in
  Alcotest.(check int) "emissions swallowed" 0 (List.length (muted.Node.tick ~step:1));
  Alcotest.(check int) "inner state advanced" 1 !ticks

let test_crash_after_zero () =
  let inner =
    Node.make ~receive:(fun ~src:_ _ -> [ Node.Broadcast "x" ]) ~terminated:(fun () -> false) ()
  in
  let crashed = Faults.crash_after ~deliveries:0 inner in
  let out = crashed.Node.receive ~src:0 "ping" in
  Alcotest.(check int) "processes nothing" 0 (List.length out);
  Alcotest.(check bool) "terminated immediately" true (crashed.Node.terminated ())

let () =
  Alcotest.run "adversary"
    [ ( "faults",
        [ Alcotest.test_case "mute" `Quick test_mute;
          Alcotest.test_case "crash at zero" `Quick test_crash_after_zero;
          Alcotest.test_case "tick until crash" `Quick test_crash_after_tick_until_crash;
          Alcotest.test_case "tick at crash-zero" `Quick test_crash_after_zero_tick_silent;
          Alcotest.test_case "mute tick advances" `Quick test_mute_tick_advances_state ] ) ]
