module Value = Bca_util.Value
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Lockstep = Bca_netsim.Lockstep
module Node = Bca_netsim.Node
module Aa = Bca_core.Aa
module Aba = Bca_core.Aba
module Stack_plain = Aba.Byz_strong_stack

let n = 4

let tf = 1

let cfg = Types.cfg ~n ~t:tf

let inputs = [| Value.V0; Value.V1; Value.V1; Value.V0 |]

(* Fair lockstep run of an assembled stack; returns the critical-path depth
   and the states for follow-up inspection. *)
let run_lockstep make =
  let res = Lockstep.run ~n ~honest:(fun _ -> true) ~make ~max_steps:5_000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  res

(* Fair lockstep depth of one run of a Byzantine stack whose rounds take
   the configuration as their parameters, with a strong coin of [degree]. *)
let once (module S : Aa.S with type inst_params = Types.cfg) ~degree ~seed =
  let coin = Coin.create Coin.Strong ~n ~degree ~seed in
  let params = { S.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let make pid =
    let st, init = S.create params ~me:pid ~input:inputs.(pid) in
    (S.node st, List.map (fun m -> Node.Broadcast m) init)
  in
  float_of_int (run_lockstep make).Lockstep.depth

let ev_optimizations ~runs ~seed =
  let on = Mc.summarize ~runs ~seed (once (module Aba.Byz_ev_stack) ~degree:(2 * tf)) in
  let off = Mc.summarize ~runs ~seed (once (module Aba.Byz_ev_fresh_stack) ~degree:(2 * tf)) in
  (on, off)

let graded_vs_plain ~runs ~seed =
  let plain = Mc.summarize ~runs ~seed (once (module Stack_plain) ~degree:tf) in
  let graded = Mc.summarize ~runs ~seed (once (module Aba.Byz_weak_stack) ~degree:tf) in
  (plain, graded)

let termination_once ~seed =
  let coin = Coin.create Coin.Strong ~n ~degree:tf ~seed in
  let params =
    { Stack_plain.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) }
  in
  let states = Array.make n None in
  let first_commit_depth = ref None in
  let depths = ref 0 in
  let make pid =
    let st, init = Stack_plain.create params ~me:pid ~input:inputs.(pid) in
    states.(pid) <- Some st;
    (Stack_plain.node st, List.map (fun m -> Node.Broadcast m) init)
  in
  let observe ~step =
    depths := step;
    if !first_commit_depth = None
       && Array.exists
            (fun st -> match st with Some st -> Stack_plain.committed st <> None | None -> false)
            states
    then first_commit_depth := Some step
  in
  let res = Lockstep.run ~n ~honest:(fun _ -> true) ~make ~observe ~max_steps:5_000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  match !first_commit_depth with
  | Some d -> float_of_int (res.Lockstep.steps - d)
  | None -> 0.0

let termination_layer ~runs ~seed =
  Mc.summarize ~runs ~seed (fun ~seed -> termination_once ~seed)
