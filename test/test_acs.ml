(* Tests for the ACS application: agreement on the subset, validity
   (>= n - t slots, honest proposals only unless delivered), termination,
   and behaviour with a crashed proposer. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Acs = Bca_rsm.Acs
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node

let cfg = Types.cfg ~n:4 ~t:1

let run_acs ?(crashed = []) ~seed () =
  let params = { Acs.cfg; coin_seed = Int64.add seed 7L } in
  let states = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        if List.mem pid crashed then (Node.silent, [])
        else begin
          let st, init = Acs.create params ~me:pid ~proposal:(Printf.sprintf "p%d" pid) in
          states.(pid) <- Some st;
          (Acs.node st, List.map (fun m -> Node.Broadcast m) init)
        end)
  in
  let rng = Rng.create seed in
  let outcome = Async.run exec (Async.random_scheduler rng) in
  (outcome, Array.map (fun st -> Option.bind st Acs.output) states)

let prop_acs_all_honest =
  QCheck2.Test.make ~count:60 ~name:"ACS: common subset, all honest"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let outcome, outputs = run_acs ~seed:(Int64.of_int seed) () in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let outs = Array.to_list outputs |> List.filter_map Fun.id in
      if List.length outs <> 4 then QCheck2.Test.fail_report "missing output";
      match outs with
      | o :: rest ->
        if not (List.for_all (( = ) o) rest) then QCheck2.Test.fail_report "subsets differ";
        (* at least n - t slots accepted, and every accepted payload is the
           proposer's genuine proposal *)
        List.length o >= Types.quorum cfg
        && List.for_all (fun (j, p) -> String.equal p (Printf.sprintf "p%d" j)) o
      | [] -> false)

let prop_acs_crashed_proposer =
  QCheck2.Test.make ~count:60 ~name:"ACS: survives a silent proposer"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let outcome, outputs = run_acs ~crashed:[ 3 ] ~seed:(Int64.of_int seed) () in
      if outcome <> `All_terminated then QCheck2.Test.fail_report "no termination";
      let outs =
        Array.to_list outputs |> List.filteri (fun i _ -> i < 3) |> List.filter_map Fun.id
      in
      if List.length outs <> 3 then QCheck2.Test.fail_report "missing output";
      match outs with
      | o :: rest ->
        List.for_all (( = ) o) rest
        && List.length o >= Types.quorum cfg
        (* the crashed proposer's slot cannot be accepted: its RBC never
           started *)
        && not (List.exists (fun (j, _) -> j = 3) o)
      | [] -> false)

let () =
  Alcotest.run "acs"
    [ ( "acs",
        [ QCheck_alcotest.to_alcotest prop_acs_all_honest;
          QCheck_alcotest.to_alcotest prop_acs_crashed_proposer ] ) ]
