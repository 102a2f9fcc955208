(* Robustness tests: duplicate and replayed messages, Byzantine flooding,
   the weak-coin stack under crashes, ACS with an actively Byzantine member,
   the EVBCA stack under Byzantine noise, and a larger cluster sanity run. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Cluster = Bca_test_helpers.Cluster
module B = Bca_core.Bca_byz
module Ev_stack = Bca_core.Aba.Byz_ev_stack
module Evbca = Bca_core.Evbca_byz
module Weak_stack = Bca_core.Aba.Crash_weak_stack
module Acs = Bca_rsm.Acs

(* ------------------------------------------------------------------ *)
(* Duplicates and replay                                               *)
(* ------------------------------------------------------------------ *)

let test_duplicate_messages_ignored () =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let p = B.create cfg ~me:0 in
  ignore (B.start p ~input:Value.V0 : B.msg list);
  (* the same echo3 from the same sender, five times: one vote *)
  for _ = 1 to 5 do
    ignore (B.handle p ~from:1 (B.MEcho3 (Types.Val Value.V0)) : B.msg list)
  done;
  ignore (B.handle p ~from:2 (B.MEcho3 (Types.Val Value.V0)) : B.msg list);
  Alcotest.(check bool) "replay does not reach quorum" true (B.decision p = None);
  ignore (B.handle p ~from:3 (B.MEcho3 (Types.Val Value.V0)) : B.msg list);
  Alcotest.(check bool) "third distinct sender decides" true (B.decision p <> None)

let test_equivocating_echo3_single_count () =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let p = B.create cfg ~me:0 in
  ignore (B.start p ~input:Value.V0 : B.msg list);
  (* a Byzantine sender flips its echo3: only the first one counts *)
  ignore (B.handle p ~from:1 (B.MEcho3 (Types.Val Value.V0)) : B.msg list);
  ignore (B.handle p ~from:1 (B.MEcho3 (Types.Val Value.V1)) : B.msg list);
  ignore (B.handle p ~from:2 (B.MEcho3 (Types.Val Value.V1)) : B.msg list);
  ignore (B.handle p ~from:3 (B.MEcho3 (Types.Val Value.V1)) : B.msg list);
  Alcotest.(check bool) "no quorum from a flip-flopping sender" true (B.decision p = None)

(* ------------------------------------------------------------------ *)
(* Byzantine flooding                                                  *)
(* ------------------------------------------------------------------ *)

let test_flooding_byzantine () =
  (* a Byzantine party that answers every delivery with a burst of junk:
     honest parties must still terminate, and quickly *)
  let cfg = Types.cfg ~n:4 ~t:1 in
  let coin = Coin.create Coin.Strong ~n:4 ~degree:1 ~seed:11L in
  let module Stack = Bca_core.Aba.Byz_strong_stack in
  let params = { Stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let rng = Rng.create 12L in
  let flood ~src:_ _ =
    List.concat_map
      (fun dst ->
        [ Node.Unicast (dst, Stack.Bca (1 + Rng.int rng 3, B.MEcho2 (Value.of_bool (Rng.bool rng))));
          Node.Unicast (dst, Stack.Committed (Value.of_bool (Rng.bool rng))) ])
      [ 0; 1; 2 ]
  in
  let states = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        if pid = 3 then
          (Node.make ~receive:flood ~terminated:(fun () -> true) (), [])
        else begin
          let st, init =
            Stack.create params ~me:pid ~input:(if pid = 0 then Value.V0 else Value.V1)
          in
          states.(pid) <- Some st;
          (Stack.node st, List.map (fun m -> Node.Broadcast m) init)
        end)
  in
  let sched_rng = Rng.create 13L in
  let outcome = Async.run ~max_deliveries:300_000 exec (Async.random_scheduler sched_rng) in
  Alcotest.(check bool) "terminates despite flooding" true (outcome = `All_terminated);
  let commits =
    Array.to_list states |> List.filter_map (fun st -> Option.bind st Stack.committed)
  in
  Alcotest.(check int) "all honest committed" 3 (List.length commits);
  match commits with
  | v :: rest ->
    Alcotest.(check bool) "agreement under flooding" true (List.for_all (Value.equal v) rest)
  | [] -> Alcotest.fail "no commits"

(* ------------------------------------------------------------------ *)
(* Weak-coin crash stack under crashes                                 *)
(* ------------------------------------------------------------------ *)

let prop_weak_stack_crashes =
  QCheck2.Test.make ~count:150 ~name:"AA-eps (crash) survives t crashes"
    QCheck2.Gen.(
      triple (Cluster.inputs_gen 5) (int_bound 100_000)
        (pair (int_bound 4) (int_bound 20)))
    (fun (inputs, seed, (c1, a1)) ->
      let cfg = Types.cfg ~n:5 ~t:2 in
      let coin =
        Coin.create (Coin.Eps 0.25) ~n:5 ~degree:2 ~seed:(Int64.of_int (seed + 1))
      in
      let params =
        { Weak_stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) }
      in
      let states = Array.make 5 None in
      let exec =
        Async.create ~n:5 ~make:(fun pid ->
            let st, init = Weak_stack.create params ~me:pid ~input:inputs.(pid) in
            states.(pid) <- Some st;
            let node = Weak_stack.node st in
            let node =
              if pid = c1 then Bca_adversary.Faults.crash_after ~deliveries:a1 node else node
            in
            (node, List.map (fun m -> Node.Broadcast m) init))
      in
      let rng = Rng.create (Int64.of_int seed) in
      let outcome = Async.run exec (Async.random_scheduler rng) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let commits =
        Array.to_list states
        |> List.filter_map (fun st -> Option.bind st Weak_stack.committed)
      in
      match commits with
      | v :: rest -> List.for_all (Value.equal v) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* ACS with an actively Byzantine member                               *)
(* ------------------------------------------------------------------ *)

let acs_byz_node rng =
  let junk () =
    let j = Rng.int rng 4 in
    match Rng.int rng 4 with
    | 0 -> Acs.Rbc (j, Bca_baselines.Bracha.Initial "forged")
    | 1 -> Acs.Rbc (j, Bca_baselines.Bracha.Ready "forged")
    | 2 -> Acs.Aba (j, Acs.Aba_slot.Committed (Value.of_bool (Rng.bool rng)))
    | _ ->
      Acs.Aba
        (j, Acs.Aba_slot.Bca (1 + Rng.int rng 2, B.MEcho3 (Types.Val (Value.of_bool (Rng.bool rng)))))
  in
  Node.make
    ~receive:(fun ~src:_ _ ->
      if Rng.int rng 4 = 0 then [ Node.Unicast (Rng.int rng 4, junk ()) ] else [])
    ~terminated:(fun () -> true)
    ()

let prop_acs_byzantine =
  QCheck2.Test.make ~count:40 ~name:"ACS: common subset despite a Byzantine member"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let cfg = Types.cfg ~n:4 ~t:1 in
      let params = { Acs.cfg; coin_seed = Int64.of_int (seed + 5) } in
      let rng_byz = Rng.create (Int64.of_int (seed + 6)) in
      let states = Array.make 4 None in
      let exec =
        Async.create ~n:4 ~make:(fun pid ->
            if pid = 3 then (acs_byz_node rng_byz, [])
            else begin
              let st, init = Acs.create params ~me:pid ~proposal:(Printf.sprintf "p%d" pid) in
              states.(pid) <- Some st;
              (Acs.node st, List.map (fun m -> Node.Broadcast m) init)
            end)
      in
      let rng = Rng.create (Int64.of_int seed) in
      let outcome = Async.run ~max_deliveries:500_000 exec (Async.random_scheduler rng) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let outs =
        Array.to_list states |> List.filter_map (fun st -> Option.bind st Acs.output)
      in
      if List.length outs <> 3 then QCheck2.Test.fail_report "missing output";
      match outs with
      | o :: rest ->
        if not (List.for_all (( = ) o) rest) then QCheck2.Test.fail_report "subsets differ";
        (* honest slots that were accepted must carry the genuine proposal:
           the forged RBC payloads must never displace them *)
        List.for_all
          (fun (j, p) -> j = 3 || String.equal p (Printf.sprintf "p%d" j))
          o
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* EVBCA stack under Byzantine noise                                   *)
(* ------------------------------------------------------------------ *)

let prop_aa_ev_byzantine =
  QCheck2.Test.make ~count:150 ~name:"AA-EVBCA: agreement under random Byzantine noise"
    QCheck2.Gen.(pair (Cluster.inputs_gen 4) (int_bound 100_000))
    (fun (inputs, seed) ->
      let cfg = Types.cfg ~n:4 ~t:1 in
      let coin = Coin.create Coin.Strong ~n:4 ~degree:2 ~seed:(Int64.of_int (seed + 1)) in
      let params = { Ev_stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
      let rng_byz = Rng.create (Int64.of_int (seed + 2)) in
      let junk () =
        let r = 1 + Rng.int rng_byz 3 in
        let v = Value.of_bool (Rng.bool rng_byz) in
        match Rng.int rng_byz 4 with
        | 0 -> Ev_stack.Bca (r, Evbca.MEcho v)
        | 1 -> Ev_stack.Bca (r, Evbca.MEcho2 v)
        | 2 -> Ev_stack.Bca (r, Evbca.MEcho3 (Types.Val v))
        | _ -> Ev_stack.Committed v
      in
      let states = Array.make 4 None in
      let exec =
        Async.create ~n:4 ~make:(fun pid ->
            if pid = 3 then
              ( Node.make
                  ~receive:(fun ~src:_ _ ->
                    if Rng.int rng_byz 3 = 0 then [ Node.Unicast (Rng.int rng_byz 4, junk ()) ]
                    else [])
                  ~terminated:(fun () -> true)
                  (),
                [] )
            else begin
              let st, init = Ev_stack.create params ~me:pid ~input:inputs.(pid) in
              states.(pid) <- Some st;
              (Ev_stack.node st, List.map (fun m -> Node.Broadcast m) init)
            end)
      in
      let rng = Rng.create (Int64.of_int seed) in
      let outcome = Async.run exec (Async.random_scheduler rng) in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let commits =
        Array.to_list states |> List.filter_map (fun st -> Option.bind st Ev_stack.committed)
      in
      match commits with
      | v :: rest -> List.for_all (Value.equal v) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Larger cluster + observer                                           *)
(* ------------------------------------------------------------------ *)

let test_n10_cluster () =
  let cfg = Types.cfg ~n:10 ~t:3 in
  let inputs = Array.init 10 (fun i -> Value.of_bool (i mod 3 = 0)) in
  match Bca_core.Aba.run ~seed:77L Bca_core.Aba.Byz_strong ~cfg ~inputs with
  | Ok r ->
    Alcotest.(check bool) "agreement at n=10" true
      (Array.for_all (Value.equal r.Bca_core.Aba.value) r.Bca_core.Aba.commits)
  | Error e -> Alcotest.fail e

let test_observer_counts_deliveries () =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let inputs = [| Value.V0; Value.V1; Value.V0; Value.V1 |] in
  let module Stack = Bca_core.Aba.Byz_strong_stack in
  let coin = Coin.create Coin.Strong ~n:4 ~degree:1 ~seed:5L in
  let params = { Stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        let st, init = Stack.create params ~me:pid ~input:inputs.(pid) in
        (Stack.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let seen = ref 0 in
  Async.set_observer exec (fun _ -> incr seen);
  let rng = Rng.create 6L in
  ignore (Async.run exec (Async.random_scheduler rng) : Async.outcome);
  Alcotest.(check int) "observer saw every delivery" (Async.deliveries exec) !seen

let () =
  Alcotest.run "robustness"
    [ ( "replay",
        [ Alcotest.test_case "duplicates ignored" `Quick test_duplicate_messages_ignored;
          Alcotest.test_case "equivocating echo3" `Quick test_equivocating_echo3_single_count
        ] );
      ("flooding", [ Alcotest.test_case "byzantine flood" `Quick test_flooding_byzantine ]);
      ( "stacks",
        [ QCheck_alcotest.to_alcotest prop_weak_stack_crashes;
          QCheck_alcotest.to_alcotest prop_aa_ev_byzantine ] );
      ("acs", [ QCheck_alcotest.to_alcotest prop_acs_byzantine ]);
      ( "scale",
        [ Alcotest.test_case "n=10 cluster" `Quick test_n10_cluster;
          Alcotest.test_case "observer" `Quick test_observer_counts_deliveries ] ) ]
