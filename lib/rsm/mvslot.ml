module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Aba = Bca_core.Aba.Byz_strong_stack

type msg = Slot_aba of Aba.msg

let pp_msg ppf (Slot_aba m) = Aba.pp_msg ppf m

type t = Aba.t

let wrap = List.map (fun m -> Slot_aba m)

let create ~cfg ~coin_seed ~me ~input =
  let coin =
    Coin.create Coin.Strong ~n:cfg.Types.n ~degree:cfg.Types.t ~seed:coin_seed
  in
  let p = { Aba.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let t, init = Aba.create p ~me ~input in
  (t, wrap init)

let handle t ~from (Slot_aba m) = wrap (Aba.handle t ~from m)

let committed = Aba.committed

let terminated = Aba.terminated
