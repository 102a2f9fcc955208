module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Coin = Bca_coin.Coin
module Threshold = Bca_crypto.Threshold
module Async = Bca_netsim.Async_exec

module Crash_strong_stack = Aa.Make (Aa.Strong (Bca_crash))
module Crash_weak_stack = Aa.Make (Aa.Graded (Gbca_crash))
module Byz_strong_stack = Aa.Make (Aa.Strong (Bca_byz))
module Byz_weak_stack = Aa.Make (Aa.Graded (Gbca_byz))
module Byz_tsig_stack = Aa.Make (Aa.Strong (Bca_tsig))
module Byz_ev_stack = Aa.Make (Aa.Ev)
module Byz_ev_fresh_stack = Aa.Make (Aa.Ev_fresh)

type spec =
  | Crash_strong
  | Crash_weak of float
  | Crash_local
  | Byz_strong
  | Byz_weak of float
  | Byz_tsig

let pp_spec ppf = function
  | Crash_strong -> Format.pp_print_string ppf "crash/strong-coin"
  | Crash_weak e -> Format.fprintf ppf "crash/%.3f-good-coin" e
  | Crash_local -> Format.pp_print_string ppf "crash/local-coin"
  | Byz_strong -> Format.pp_print_string ppf "byz/strong-coin"
  | Byz_weak e -> Format.fprintf ppf "byz/%.3f-good-coin" e
  | Byz_tsig -> Format.pp_print_string ppf "byz/strong-coin+tsig"

let default_coin_degree spec ~t =
  match spec with
  | Byz_tsig -> 2 * t
  | Crash_strong | Crash_weak _ | Crash_local | Byz_strong | Byz_weak _ -> t

let spec_mode = function
  | Crash_strong | Crash_weak _ | Crash_local -> `Crash
  | Byz_strong | Byz_weak _ | Byz_tsig -> `Byz

let spec_commits_on_coin = function
  | Crash_strong | Byz_strong | Byz_tsig -> true
  | Crash_weak _ | Crash_local | Byz_weak _ -> false

type result = {
  value : Value.t;
  commits : Value.t array;
  deliveries : int;
  rounds : int;
}

(* One party as a generic runner sees it: protocol state accessors over the
   erased stack type. *)
type party = {
  committed : unit -> Value.t option;
  commit_round : unit -> int option;
  round : unit -> int;
  phase : unit -> string;
}

type 'r driver = {
  drive :
    'm. coin:Bca_coin.Coin.t -> wire:'m Bca_wire.Wire.codec -> 'm Async.t -> party array -> 'r;
}

type 'm built = {
  b_coin : Coin.t;
  b_exec : 'm Async.t;
  b_parties : party array;
}

type 'r spec_handler = {
  handle :
    'm.
    wire:'m Bca_wire.Wire.codec ->
    mk_instance:(seed:int64 -> inputs:Value.t array -> 'm built) ->
    'r;
}

(* A stack as [with_spec] assembles it: an [Aa.Make] instance and the wire
   codec of its message type. *)
module type STACK = sig
  include Aa.S

  val wire : msg Bca_wire.Wire.codec
end

(* The six-way match is done once; everything seed-dependent (coin,
   threshold keys, per-party state) lives behind [mk_instance], so a
   handler can assemble any number of independent instances of the same
   stack - all sharing the message type and wire codec.  [run_custom] is
   the one-instance special case. *)
let with_spec (type r) ?(tracer = Bca_obs.Trace.null) spec ~cfg ~(handler : r spec_handler) :
    (r, string) Stdlib.result =
  let n = cfg.Types.n in
  let degree = default_coin_degree spec ~t:cfg.Types.t in
  let mode = spec_mode spec in
  let kind =
    match spec with
    | Crash_strong | Byz_strong | Byz_tsig -> Coin.Strong
    | Crash_weak eps | Byz_weak eps -> Coin.Eps eps
    | Crash_local -> Coin.Local
  in
  (* [bca_params ~seed] runs once per instance (the threshold-key setup),
     then gives each party its per-round instance parameters. *)
  let assemble (type p) (module S : STACK with type inst_params = p)
      (bca_params : seed:int64 -> Types.pid -> round:int -> p) : r =
    let mk_instance ~seed ~inputs =
      if Array.length inputs <> n then invalid_arg "inputs must have length n";
      let coin = Coin.create kind ~n ~degree ~seed:(Int64.add seed 0x5EEDL) in
      if Bca_obs.Trace.enabled tracer then
        Coin.set_observer coin (fun ~round ~pid value ->
            Bca_obs.Trace.emit tracer (Bca_obs.Event.Coin_reveal { pid; round; value }));
      let party_params = bca_params ~seed in
      let parties =
        Array.init n (fun pid ->
            S.create
              { S.cfg; mode; coin; bca_params = party_params pid }
              ~me:pid ~input:inputs.(pid))
      in
      let exec =
        Async.create_traced ~tracer ~n ~make:(fun pid ->
            let t, initial = parties.(pid) in
            (S.node t, List.map (fun m -> Bca_netsim.Node.Broadcast m) initial))
      in
      let party (t, _) =
        { committed = (fun () -> S.committed t);
          commit_round = (fun () -> S.commit_round t);
          round = (fun () -> S.current_round t);
          phase = (fun () -> S.current_phase t) }
      in
      { b_coin = coin; b_exec = exec; b_parties = Array.map party parties }
    in
    handler.handle ~wire:S.wire ~mk_instance
  in
  let same_cfg ~seed:_ _ ~round:_ = cfg in
  let keyed ~seed =
    let setup, keys = Threshold.setup ~n ~seed:(Int64.add seed 0xC4F7L) in
    fun pid ~round -> { Bca_tsig.cfg; setup; key = keys.(pid); id = Printf.sprintf "aba/%d" round }
  in
  try
    (match mode with
    | `Crash -> Types.check_crash_resilience cfg
    | `Byz -> Types.check_byz_resilience cfg);
    Ok
      (match spec with
      | Crash_strong ->
        assemble (module struct include Crash_strong_stack let wire = Wirefmt.crash_strong end) same_cfg
      | Crash_weak _ | Crash_local ->
        assemble (module struct include Crash_weak_stack let wire = Wirefmt.crash_weak end) same_cfg
      | Byz_strong ->
        assemble (module struct include Byz_strong_stack let wire = Wirefmt.byz_strong end) same_cfg
      | Byz_weak _ ->
        assemble (module struct include Byz_weak_stack let wire = Wirefmt.byz_weak end) same_cfg
      | Byz_tsig ->
        assemble (module struct include Byz_tsig_stack let wire = Wirefmt.byz_tsig end) keyed)
  with Invalid_argument msg -> Error msg

let run_custom (type r) ?(seed = 0xB0CA1L) ?(tracer = Bca_obs.Trace.null) spec ~cfg ~inputs
    ~(driver : r driver) : (r, string) Stdlib.result =
  if Array.length inputs <> cfg.Types.n then Error "inputs must have length n"
  else
    with_spec ~tracer spec ~cfg
      ~handler:
        { handle =
            (fun ~wire ~mk_instance ->
              let b = mk_instance ~seed ~inputs in
              driver.drive ~coin:b.b_coin ~wire b.b_exec b.b_parties) }

type 'm instance = {
  i_id : int;
  i_seed : int64;
  i_coin : Coin.t;
  i_exec : 'm Async.t;
  i_parties : party array;
}

type 'r many_driver = {
  drive_many : 'm. wire:'m Bca_wire.Wire.codec -> 'm instance array -> 'r;
}

let run_custom_many (type r) ?(tracer = Bca_obs.Trace.null) spec ~cfg ~seeds ~inputs
    ~(driver : r many_driver) : (r, string) Stdlib.result =
  if Array.length seeds < 1 then Error "run_custom_many: no instances"
  else if Array.length seeds <> Array.length inputs then
    Error "run_custom_many: seeds and inputs length mismatch"
  else if Array.exists (fun iv -> Array.length iv <> cfg.Types.n) inputs then
    Error "inputs must have length n"
  else
    with_spec ~tracer spec ~cfg
      ~handler:
        { handle =
            (fun ~wire ~mk_instance ->
              let insts =
                Array.mapi
                  (fun k seed ->
                    let b = mk_instance ~seed ~inputs:inputs.(k) in
                    { i_id = k;
                      i_seed = seed;
                      i_coin = b.b_coin;
                      i_exec = b.b_exec;
                      i_parties = b.b_parties })
                  seeds
              in
              driver.drive_many ~wire insts) }

let random_run_driver ~seed : (result, string) Stdlib.result driver =
  { drive =
      (fun ~coin:_ ~wire:_ exec parties ->
        let rng = Rng.create seed in
        match Async.run exec (Async.random_scheduler rng) with
        | `All_terminated ->
          let commits =
            Array.map
              (fun p ->
                match p.committed () with
                | Some v -> v
                | None -> invalid_arg "terminated without commit")
              parties
          in
          let value = commits.(0) in
          if Array.for_all (Value.equal value) commits then
            Ok
              { value;
                commits;
                deliveries = Async.deliveries exec;
                rounds = Array.fold_left (fun acc p -> max acc (p.round ())) 0 parties }
          else Error "agreement violated (bug)"
        | `Quiescent -> Error "network quiesced before termination (liveness bug)"
        | `Limit -> Error "delivery limit reached before termination"
        | `Stopped -> Error "scheduler stopped")
  }

let run ?(seed = 0xB0CA1L) spec ~cfg ~inputs =
  match run_custom ~seed spec ~cfg ~inputs ~driver:(random_run_driver ~seed) with
  | Ok r -> r
  | Error _ as e -> e
