module Value = Bca_util.Value
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Lockstep = Bca_netsim.Lockstep
module Node = Bca_netsim.Node
module Bca_crash = Bca_core.Bca_crash
module Gbca_crash = Bca_core.Gbca_crash
module Stack_strong = Bca_core.Aba.Crash_strong_stack
module Stack_weak = Bca_core.Aba.Crash_weak_stack

let strong_expected = 7.0

let weak_expected ~eps = (3.0 /. eps) +. 4.0

(* Alternate two envelope classes: x0 y0 x1 y1 ... - forces every
   "all messages equal?" quorum test over the prefix to fail. *)
let interleave_classes xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: go xs ys
  in
  go xs ys

let rounds_of extract envs =
  List.sort_uniq Int.compare (List.filter_map extract envs)

(* ------------------------------------------------------------------ *)
(* Strong coin cell: Theorem 4.2's "strategy 1".                       *)
(* ------------------------------------------------------------------ *)

let strong_once ~n ~tf ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create Coin.Strong ~n ~degree:tf ~seed in
  let params =
    { Stack_strong.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) }
  in
  let inputs = Array.init n (fun pid -> if pid < Types.quorum cfg then Value.V0 else Value.V1) in
  let make pid =
    let st, init = Stack_strong.create params ~me:pid ~input:inputs.(pid) in
    (Stack_strong.node st, List.map (fun m -> Node.Broadcast m) init)
  in
  (* Every party sees a value-mixed prefix of each round's val messages, so
     every BCA instance with non-unanimous inputs decides bottom. *)
  let val_round (env : _ Lockstep.envelope) =
    match env.Lockstep.payload with
    | Stack_strong.Bca (r, Bca_crash.MVal _) -> Some r
    | _ -> None
  in
  let val_value (env : _ Lockstep.envelope) =
    match env.Lockstep.payload with
    | Stack_strong.Bca (_, Bca_crash.MVal v) -> Some v
    | _ -> None
  in
  let order ~step:_ ~dst:_ envs =
    let vals, rest = List.partition (fun e -> val_round e <> None) envs in
    let ordered =
      List.concat_map
        (fun r ->
          let mine = List.filter (fun e -> (match val_round e with Some r' -> r' = r | None -> false)) vals in
          let v0s, v1s = List.partition (fun e -> (match val_value e with Some v -> Value.equal v Value.V0 | None -> false)) mine in
          interleave_classes v0s v1s)
        (rounds_of val_round vals)
    in
    ordered @ rest
  in
  let res = Lockstep.run ~n ~honest:(fun _ -> true) ~make ~order ~max_steps:2000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  float_of_int res.Lockstep.depth

let strong ~runs ~seed =
  Mc.summarize ~runs ~seed (fun ~seed -> strong_once ~n:5 ~tf:2 ~seed)

let strong_raw ~runs ~seed =
  let rng = Bca_util.Rng.create seed in
  List.init runs (fun _ -> strong_once ~n:5 ~tf:2 ~seed:(Bca_util.Rng.int64 rng))

let strong_n ~n ~runs ~seed =
  let tf = (n - 1) / 2 in
  Mc.summarize ~runs ~seed (fun ~seed -> strong_once ~n ~tf ~seed)

(* ------------------------------------------------------------------ *)
(* Weak coin cell: Theorem 5.2, keep one grade-1 party per round.      *)
(* ------------------------------------------------------------------ *)

(* Per-round plan: [m] is the value held by at least [q] parties (so an
   echo-quorum for it is formable); parties [0 .. q-1] are steered to echo
   [m] and party 0 alone ends at grade 1.  [None] when no value has q
   holders (possible only under the local coin): the round is all-bottom. *)
type weak_plan = { m : Value.t } [@@unboxed]

let weak_generic ~n ~tf ~coin_kind ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let q = Types.quorum cfg in
  let coin = Coin.create coin_kind ~n ~degree:tf ~seed in
  let params =
    { Stack_weak.cfg; mode = `Crash; coin; bca_params = (fun ~round:_ -> cfg) }
  in
  let plans : (int, weak_plan option) Hashtbl.t = Hashtbl.create 16 in
  (* In adversarial coin rounds, steer every coin-adopting party to the
     complement of the bound value, so only the epsilon-good event makes
     progress. *)
  Coin.set_adversary_choice coin (fun ~round ~pid ->
      match Hashtbl.find_opt plans round with
      | Some (Some { m }) -> Value.negate m
      | Some None | None -> if pid mod 2 = 0 then Value.V0 else Value.V1);
  let states = Array.make n None in
  let inputs =
    Array.init n (fun pid -> if pid < q then Value.V0 else Value.V1)
  in
  let make pid =
    let st, init = Stack_weak.create params ~me:pid ~input:inputs.(pid) in
    states.(pid) <- Some st;
    (Stack_weak.node st, List.map (fun m -> Node.Broadcast m) init)
  in
  let payload (env : _ Lockstep.envelope) = env.Lockstep.payload in
  let plan_for r envs =
    match Hashtbl.find_opt plans r with
    | Some p -> p
    | None ->
      let vals =
        List.filter_map
          (fun e ->
            match payload e with
            | Stack_weak.Bca (r', Gbca_crash.MVal v) when r' = r -> Some v
            | _ -> None)
          envs
      in
      let count v = List.length (List.filter (Value.equal v) vals) in
      let p =
        if count Value.V0 >= q then Some { m = Value.V0 }
        else if count Value.V1 >= q then Some { m = Value.V1 }
        else None
      in
      Hashtbl.replace plans r p;
      p
  in
  (* Reorder one recipient's batch so that, per round: parties [0..q-1] see
     a pure prefix of the quorum-formable value m (they echo m), the others a
     mixed prefix (they echo bottom); party 0 alone sees an echo2 prefix
     containing m (grade 1), everyone else an all-bottom echo2 prefix
     (grade 0).  This realizes the worst case of Theorem 5.2: exactly one
     grade-1 holder of the bound value per round. *)
  let order ~step:_ ~dst envs =
    let round_of env =
      match payload env with
      | Stack_weak.Bca (r, _) -> Some r
      | Stack_weak.Committed _ -> None
    in
    let reorder_round r mine =
      let plan = plan_for r mine in
      let kind sel = List.filter sel mine in
      let vals =
        kind (fun e ->
            match payload e with Stack_weak.Bca (_, Gbca_crash.MVal _) -> true | _ -> false)
      in
      let echoes =
        kind (fun e ->
            match payload e with Stack_weak.Bca (_, Gbca_crash.MEcho _) -> true | _ -> false)
      in
      let echo2s =
        kind (fun e ->
            match payload e with Stack_weak.Bca (_, Gbca_crash.MEcho2 _) -> true | _ -> false)
      in
      let rest =
        kind (fun e ->
            match payload e with
            | Stack_weak.Bca (_, (Gbca_crash.MVal _ | Gbca_crash.MEcho _ | Gbca_crash.MEcho2 _))
              ->
              false
            | Stack_weak.Committed _ -> true)
      in
      match plan with
      | None -> mine
      | Some { m } ->
        let val_is_m e =
          match payload e with
          | Stack_weak.Bca (_, Gbca_crash.MVal v) -> Value.equal v m
          | _ -> false
        in
        let echo_is_m e =
          match payload e with
          | Stack_weak.Bca (_, Gbca_crash.MEcho cv) -> Types.cvalue_equal cv (Types.Val m)
          | _ -> false
        in
        let echo2_is_m e =
          match payload e with
          | Stack_weak.Bca (_, Gbca_crash.MEcho2 cv) -> Types.cvalue_equal cv (Types.Val m)
          | _ -> false
        in
        let vm, vw = List.partition val_is_m vals in
        let em, ew = List.partition echo_is_m echoes in
        let e2m, e2w = List.partition echo2_is_m echo2s in
        let vals' = if dst < q then vm @ vw else interleave_classes vm vw in
        let echoes' = if dst = 0 then em @ ew else interleave_classes em ew in
        let echo2s' = if dst = 0 then e2m @ e2w else e2w @ e2m in
        vals' @ echoes' @ echo2s' @ rest
    in
    let rounds = rounds_of round_of envs in
    let no_round = List.filter (fun e -> round_of e = None) envs in
    List.concat_map
      (fun r -> reorder_round r (List.filter (fun e -> (match round_of e with Some r' -> r' = r | None -> false)) envs))
      rounds
    @ no_round
  in
  let res = Lockstep.run ~n ~honest:(fun _ -> true) ~make ~order ~max_steps:20_000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  let max_commit_round =
    Array.fold_left
      (fun acc st ->
        match st with
        | Some st ->
          (match Stack_weak.commit_round st with Some r -> max acc r | None -> acc)
        | None -> acc)
      0 states
  in
  (res, max_commit_round)

let weak ~eps ~runs ~seed =
  Mc.summarize ~runs ~seed (fun ~seed ->
      let res, _ = weak_generic ~n:5 ~tf:2 ~coin_kind:(Coin.Eps eps) ~seed in
      float_of_int res.Lockstep.depth)

let weak_n ~n ~eps ~runs ~seed =
  let tf = (n - 1) / 2 in
  Mc.summarize ~runs ~seed (fun ~seed ->
      let res, _ = weak_generic ~n ~tf ~coin_kind:(Coin.Eps eps) ~seed in
      float_of_int res.Lockstep.depth)

let local_rounds ~n ~runs ~seed =
  let tf = (n - 1) / 2 in
  Mc.summarize ~runs ~seed (fun ~seed ->
      let _, rounds = weak_generic ~n ~tf ~coin_kind:Coin.Local ~seed in
      float_of_int rounds)

(* ------------------------------------------------------------------ *)
(* Ben-Or baseline: keep exactly one party proposing the majority      *)
(* value; everyone else flips a local coin.                            *)
(* ------------------------------------------------------------------ *)

module Benor = Bca_baselines.Benor

let benor_once ~n ~tf ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create Coin.Local ~n ~degree:0 ~seed in
  let params = { Benor.cfg; coin } in
  let states = Array.make n None in
  let inputs = Array.init n (fun pid -> if pid = 0 then Value.V1 else Value.V0) in
  let make pid =
    let st, init = Benor.create params ~me:pid ~input:inputs.(pid) in
    states.(pid) <- Some st;
    (Benor.node st, List.map (fun m -> Node.Broadcast m) init)
  in
  (* Per-round majority value: recomputed from the round's report batch. *)
  let majorities : (int, Value.t option) Hashtbl.t = Hashtbl.create 32 in
  let majority_for r envs =
    match Hashtbl.find_opt majorities r with
    | Some m -> m
    | None ->
      let reports =
        List.filter_map
          (fun (e : _ Lockstep.envelope) ->
            match e.Lockstep.payload with
            | Benor.Report (r', v) when r' = r -> Some v
            | _ -> None)
          envs
      in
      let count v = List.length (List.filter (Value.equal v) reports) in
      let m =
        if 2 * count Value.V0 > n then Some Value.V0
        else if 2 * count Value.V1 > n then Some Value.V1
        else None
      in
      Hashtbl.replace majorities r m;
      m
  in
  let order ~step:_ ~dst envs =
    let round_of (e : _ Lockstep.envelope) =
      match e.Lockstep.payload with
      | Benor.Report (r, _) | Benor.Proposal (r, _) -> Some r
      | Benor.Committed _ -> None
    in
    let reorder r mine =
      match majority_for r mine with
      | None -> mine
      | Some m ->
        let score (e : _ Lockstep.envelope) =
          match e.Lockstep.payload with
          | Benor.Report (_, v) ->
            if dst = 0 then if Value.equal v m then 0 else 1
            else if Value.equal v m then if e.Lockstep.src = 0 then 0 else 1
            else 0
          | Benor.Proposal (_, Some v) ->
            if dst = 0 && Value.equal v m then 0 else 2
          | Benor.Proposal (_, None) -> if dst = 0 then 1 else 0
          | Benor.Committed _ -> 0
        in
        List.stable_sort (fun a b -> Int.compare (score a) (score b)) mine
    in
    let rounds = rounds_of round_of envs in
    let no_round = List.filter (fun e -> round_of e = None) envs in
    List.concat_map (fun r -> reorder r (List.filter (fun e -> (match round_of e with Some r' -> r' = r | None -> false)) envs)) rounds
    @ no_round
  in
  let res =
    Lockstep.run ~n ~honest:(fun _ -> true) ~make ~order ~max_steps:200_000 ()
  in
  assert (res.Lockstep.outcome = `All_terminated);
  let rounds =
    Array.fold_left
      (fun acc st ->
        match st with
        | Some st -> (match Benor.commit_round st with Some r -> max acc r | None -> acc)
        | None -> acc)
      0 states
  in
  float_of_int rounds

let benor_rounds ~n ~runs ~seed =
  let tf = (n - 1) / 2 in
  Mc.summarize ~runs ~seed (fun ~seed -> benor_once ~n ~tf ~seed)
