(* Crash-tolerant flag-day switch: a 7-node replicated service votes on
   activating a new feature while nodes crash mid-protocol - the Section 1.1
   setting (ACA, n >= 2t + 1).

   Run with:  dune exec examples/crash_cluster.exe

   Three of seven nodes crash, one of them in mid-broadcast (only a subset
   of peers sees its final message).  The survivors still reach uniform
   agreement: even the values committed by nodes that crashed after
   committing agree with the survivors'. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Faults = Bca_adversary.Faults
module Stack = Bca_core.Aba.Crash_strong_stack

let () =
  let n = 7 and t = 3 in
  let cfg = Types.cfg ~n ~t in
  let coin = Coin.create Coin.Strong ~n ~degree:t ~seed:7L in
  let params = { Stack.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) } in
  (* a mixed vote: nodes 0-3 want the feature, 4-6 do not *)
  let inputs = Array.init n (fun pid -> if pid < 4 then Value.V1 else Value.V0) in
  (* crash plan: node 2 after 10 deliveries (clean), node 5 after 25
     deliveries with its last broadcast reaching only nodes 0 and 1,
     node 6 before processing anything *)
  let crash_plan = [ (2, (10, [])); (5, (25, [ 0; 1 ])); (6, (0, [])) ] in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = Stack.create params ~me:pid ~input:inputs.(pid) in
        states.(pid) <- Some st;
        let node = Stack.node st in
        let node =
          match List.assoc_opt pid crash_plan with
          | Some (after, last) ->
            Faults.crash_after ~deliveries:after ~last_recipients:last node
          | None -> node
        in
        (node, List.map (fun m -> Node.Broadcast m) init))
  in
  let rng = Rng.create 99L in
  (match Async.run exec (Async.random_scheduler rng) with
  | `All_terminated -> Format.printf "cluster terminated@."
  | outcome ->
    Format.printf "unexpected outcome: %s@."
      (match outcome with
      | `Quiescent -> "quiescent"
      | `Limit -> "limit"
      | `Stopped -> "stopped"
      | `All_terminated -> assert false));
  Array.iteri
    (fun pid st ->
      let crashed = List.mem_assoc pid crash_plan in
      match st with
      | Some st ->
        Format.printf "node %d%s: %s@." pid
          (if crashed then " (crashed)" else "")
          (match Stack.committed st with
          | Some v -> "committed " ^ Value.to_string v
          | None -> "no commitment before crash")
      | None -> ())
    states;
  (* uniform agreement check across everyone who committed *)
  let commits =
    Array.to_list states |> List.filter_map (fun st -> Option.bind st Stack.committed)
  in
  match commits with
  | v :: rest ->
    Format.printf "uniform agreement (crashed nodes included): %b@."
      (List.for_all (Value.equal v) rest)
  | [] -> Format.printf "nobody committed?!@."
