(* The windowed replicated log: identical duplicate-free logs under the
   pipelined executor, cross-replica dedup, bounded future buffering,
   prefix consistency under chaos plans (kills included) and under an
   equivocating proposer, payload pulls answered by replicas whose whole
   log has terminated, and the memory a finished epoch keeps. *)

module Rsm = Bca_rsm.Rsm
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Monitor = Bca_netsim.Monitor
module Node = Bca_netsim.Node
module Chaos = Bca_adversary.Chaos
module Rng = Bca_util.Rng
module Acs = Bca_rsm.Acs
module Bracha = Bca_baselines.Bracha
module Sha256 = Bca_crypto.Sha256
module Cluster = Bca_test_helpers.Cluster

let mk_params ?(window = 3) ?(epochs = 6) ~seed () =
  Rsm.mk_params
    ~cfg:(Types.cfg ~n:4 ~t:1)
    ~coin_seed:(Int64.add seed 31L) ~epochs ~window ()

let run_rsm ?(params = fun seed -> mk_params ~seed ()) ?(submit = fun _ _ -> ())
    ?(silent = []) ~seed () =
  let n = 4 in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        if List.mem pid silent then (Node.silent, [])
        else begin
          let st, init = Rsm.create (params seed) ~me:pid in
          states.(pid) <- Some st;
          submit pid st;
          (Rsm.node st, List.map (fun m -> Node.Broadcast m) init)
        end)
  in
  let rng = Rng.create seed in
  let outcome = Async.run ~max_deliveries:2_000_000 exec (Async.random_scheduler rng) in
  (outcome, states)

let default_submit pid st =
  ignore (Rsm.submit st (Printf.sprintf "tx-%d-a" pid) : bool);
  ignore (Rsm.submit st (Printf.sprintf "tx-%d-b" pid) : bool)

let check_logs states =
  let logs =
    Array.to_list states |> List.filter_map (fun st -> Option.map Rsm.log st)
  in
  (match logs with
  | l :: rest ->
    List.iter (fun l' -> Alcotest.(check (list string)) "identical logs" l l') rest
  | [] -> Alcotest.fail "no logs");
  let l = match logs with l :: _ -> l | [] -> [] in
  Alcotest.(check (list string)) "no duplicates"
    (List.sort_uniq String.compare l)
    (List.sort String.compare l);
  l

let test_all_honest () =
  let outcome, states = run_rsm ~submit:default_submit ~seed:1L () in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  let l = check_logs states in
  Alcotest.(check bool) "transactions committed" true (List.length l >= 6);
  Array.iter
    (fun st ->
      match st with
      | Some st -> Alcotest.(check int) "all epochs" 6 (Rsm.committed_epochs st)
      | None -> ())
    states

(* A transaction handed to every replica commits exactly once - the
   cross-replica dedup satellite. *)
let test_cross_replica_dedup () =
  let submit pid st =
    ignore (Rsm.submit st "shared-tx" : bool);
    ignore (Rsm.submit st (Printf.sprintf "tx-%d" pid) : bool)
  in
  let outcome, states = run_rsm ~submit ~seed:5L () in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  let l = check_logs states in
  let shared = List.filter (String.equal "shared-tx") l in
  Alcotest.(check int) "shared tx exactly once" 1 (List.length shared)

(* Local duplicate suppression at submission time. *)
let test_submit_dedup () =
  let p = mk_params ~seed:9L () in
  let st, _ = Rsm.create p ~me:0 in
  Alcotest.(check bool) "fresh accepted" true (Rsm.submit st "a");
  Alcotest.(check bool) "duplicate rejected" false (Rsm.submit st "a");
  Alcotest.(check int) "queued once" 1 (Rsm.pending_txs st)

(* Batch cut policy: with [max_txs = 2], no committed epoch ever applies
   more than two of the lone submitter's transactions - proposals are cut
   off the queue two at a time. *)
let test_batch_cut () =
  let batch_sizes = ref [] in
  let n = 4 in
  let states = Array.make n None in
  let params =
    Rsm.mk_params ~cfg:(Types.cfg ~n ~t:1) ~coin_seed:3L ~epochs:8 ~window:1
      ~batch:{ Rsm.max_txs = 2; max_bytes = 1_000 } ()
  in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let on_commit ~epoch:_ txs =
          if pid = 0 then batch_sizes := List.length txs :: !batch_sizes
        in
        let st, init = Rsm.create ~on_commit params ~me:pid in
        states.(pid) <- Some st;
        if pid = 0 then
          List.iter (fun tx -> ignore (Rsm.submit st tx : bool)) [ "w"; "x"; "y"; "z" ];
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let outcome = Async.run ~max_deliveries:2_000_000 exec (Async.random_scheduler (Rng.create 3L)) in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  List.iter
    (fun k -> Alcotest.(check bool) "epoch applies at most max_txs" true (k <= 2))
    !batch_sizes;
  let l = check_logs states in
  Alcotest.(check (list string)) "everything committed"
    [ "w"; "x"; "y"; "z" ] (List.sort String.compare l)

let test_netstring_roundtrip () =
  let txs = [ "plain"; ""; "with:colon"; "with;semicolon"; String.make 3 '\000' ] in
  Alcotest.(check (list string)) "roundtrip" txs (Rsm.decode_batch (Rsm.encode_batch txs));
  (* malformed tails decode to the well-formed prefix, never raise *)
  Alcotest.(check (list string)) "garbage" [] (Rsm.decode_batch "zzzz");
  Alcotest.(check (list string)) "truncated" [ "ab" ] (Rsm.decode_batch "2:ab99:cd")

let test_silent_replica () =
  (* one replica never participates; the rest keep committing *)
  let outcome, states =
    run_rsm ~submit:default_submit ~silent:[ 3 ] ~seed:2L ()
  in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  let l = check_logs states in
  Alcotest.(check bool) "progress without the silent replica" true (List.length l >= 4);
  Alcotest.(check bool) "silent replica's txs absent" true
    (List.for_all (fun tx -> not (String.length tx > 3 && tx.[3] = '3')) l)

(* ------------------------------------------------------------------ *)
(* Prefix consistency under chaos                                       *)
(* ------------------------------------------------------------------ *)

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> String.equal x y && go a' b'
  in
  go a b

(* 200+ generated chaos plans - crashes, partitions, link faults and
   kill/restart faults - against the windowed log.  Safety statement:
   whatever the adversary does within budget, the logs of honest
   still-standing replicas are prefixes of one another (termination is
   not claimed: a plan may drop honest traffic forever). *)
let prop_prefix_consistency =
  QCheck2.Test.make ~count:220 ~name:"rsm prefix consistency under chaos"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let seed64 = Int64.of_int seed in
      let n = 4 in
      let plan =
        Chaos.gen ~kills:1 (Rng.create seed64) ~n ~max_faults:1 ~allow_corrupt:false
      in
      let params =
        Rsm.mk_params ~cfg:(Types.cfg ~n ~t:1)
          ~coin_seed:(Int64.add seed64 7L) ~epochs:3 ~window:2 ()
      in
      let states = Array.make n None in
      let exec =
        Async.create ~n ~make:(fun pid ->
            let st, init = Rsm.create params ~me:pid in
            states.(pid) <- Some st;
            ignore (Rsm.submit st (Printf.sprintf "tx-%d-%d" seed pid) : bool);
            (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
      in
      let ch = Chaos.start plan exec in
      ignore (Chaos.run ~max_deliveries:300_000 ch : Async.outcome);
      let faulty = Chaos.faulty_parties plan in
      let logs = ref [] in
      Array.iteri
        (fun pid st ->
          if not (List.mem pid faulty) then
            match st with Some st -> logs := Rsm.log st :: !logs | None -> ())
        states;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (is_prefix a b || is_prefix b a) then
                QCheck2.Test.fail_reportf
                  "logs diverge under plan:@.%a@.%s@.vs@.%s" Chaos.pp plan
                  (String.concat ";" a) (String.concat ";" b))
            !logs)
        !logs;
      true)

(* ------------------------------------------------------------------ *)
(* The payload pull and an equivocating proposer                        *)
(* ------------------------------------------------------------------ *)

(* Replica [r] never receives replica 0's [Initial] in any epoch.  Phase
   one delivers only to the other replicas until each has committed its
   whole log (and so answers nothing but pulls); phase two lets [r] catch
   up, which it can only do by pulling replica 0's batches. *)
let test_pull_after_log_terminated () =
  let n = 4 and r = 3 in
  let params =
    Rsm.mk_params ~cfg:(Types.cfg ~n ~t:1) ~coin_seed:41L ~epochs:3 ~window:2 ()
  in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = Rsm.create params ~me:pid in
        states.(pid) <- Some st;
        ignore (Rsm.submit st (Printf.sprintf "tx-%d" pid) : bool);
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let from_0 = function
    | Rsm.Epoch (_, Acs.Rbc (0, Bracha.Initial _)) -> true
    | Rsm.Epoch (_, (Acs.Rbc _ | Acs.Aba _)) -> false
  in
  List.iter
    (fun (e : Rsm.msg Async.envelope) ->
      if e.dst = r && from_0 e.payload then ignore (Async.drop_eid exec e.eid))
    (Async.inflight exec);
  let pulled = ref 0 in
  Async.set_observer exec (fun e ->
      match e.Async.payload with
      | Rsm.Epoch (_, Acs.Rbc (0, Bracha.Payload _)) when e.Async.dst = r -> incr pulled
      | Rsm.Epoch (_, (Acs.Rbc _ | Acs.Aba _)) -> ());
  let rng = Rng.create 41L in
  let others_done () =
    List.for_all (fun p -> Option.fold ~none:false ~some:Rsm.terminated states.(p)) [ 0; 1; 2 ]
  in
  ignore
    (Async.run ~stop_when:(fun _ -> others_done ()) exec (Cluster.random_avoiding rng ~pid:r)
      : Async.outcome);
  Alcotest.(check bool) "every holder finished its log first" true (others_done ());
  let outcome = Async.run exec (Async.random_scheduler rng) in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  Alcotest.(check bool) "the laggard pulled" true (!pulled > 0);
  let l = check_logs states in
  Alcotest.(check bool) "replica 0's transaction committed" true (List.mem "tx-0" l)

(* Replica 3 equivocates in every epoch: batch [a] to replica 0, [b] to
   replica 1, either to replica 2; it echoes and readies one of them (or
   stays quiet) and answers every pull with the other.  Over seeds 1-50
   the honest logs stay prefix-consistent, and every honest replica
   commits its whole log. *)
let equivocating_replica rng ~epochs =
  let rbc e m = Rsm.Epoch (e, Acs.Rbc (3, m)) in
  let batch e side = Rsm.encode_batch [ Printf.sprintf "byz-%d-%s" e side ] in
  let node =
    Node.make
      ~receive:(fun ~src m ->
        match m with
        | Rsm.Epoch (e, Acs.Rbc (3, Bracha.Fetch h)) ->
          let a = batch e "a" in
          let wrong = if String.equal h (Sha256.digest a) then batch e "b" else a in
          [ Node.Unicast (src, rbc e (Bracha.Payload wrong)) ]
        | Rsm.Epoch (_, (Acs.Rbc _ | Acs.Aba _)) -> [])
      ~terminated:(fun () -> true)
      ()
  in
  let epoch e =
    let a = batch e "a" and b = batch e "b" in
    let backed = Sha256.digest (if Rng.bool rng then a else b) in
    let votes =
      if Rng.int rng 4 = 0 then []
      else
        [ Node.Broadcast (rbc e (Bracha.Echo backed));
          Node.Broadcast (rbc e (Bracha.Ready backed)) ]
    in
    [ Node.Unicast (0, rbc e (Bracha.Initial a));
      Node.Unicast (1, rbc e (Bracha.Initial b));
      Node.Unicast (2, rbc e (Bracha.Initial (if Rng.bool rng then a else b))) ]
    @ votes
  in
  (node, List.concat_map epoch (List.init epochs Fun.id))

let test_equivocating_proposer () =
  let n = 4 and epochs = 3 in
  for seed = 1 to 50 do
    let seed64 = Int64.of_int seed in
    let params =
      Rsm.mk_params ~cfg:(Types.cfg ~n ~t:1) ~coin_seed:(Int64.add seed64 7L) ~epochs ~window:2 ()
    in
    let states = Array.make n None in
    let rng_byz = Rng.create (Int64.add seed64 1000L) in
    let exec =
      Async.create ~n ~make:(fun pid ->
          if pid = 3 then equivocating_replica rng_byz ~epochs
          else begin
            let st, init = Rsm.create params ~me:pid in
            states.(pid) <- Some st;
            ignore (Rsm.submit st (Printf.sprintf "tx-%d-%d" seed pid) : bool);
            (Rsm.node st, List.map (fun m -> Node.Broadcast m) init)
          end)
    in
    let outcome =
      Async.run ~max_deliveries:2_000_000 exec (Async.random_scheduler (Rng.create seed64))
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: terminated" seed)
      true (outcome = `All_terminated);
    let logs = List.filter_map (fun st -> Option.map Rsm.log st) (Array.to_list states) in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if not (is_prefix a b || is_prefix b a) then
              Alcotest.failf "seed %d: logs diverge:@.%s@.vs@.%s" seed (String.concat ";" a)
                (String.concat ";" b))
          logs)
      logs
  done

(* ------------------------------------------------------------------ *)
(* Bounded buffering                                                    *)
(* ------------------------------------------------------------------ *)

(* A flood of far-future traffic is shed, observed, and bounded: held
   messages never exceed the configured cap. *)
let test_buffer_bounded () =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let p =
    Rsm.mk_params ~cfg ~coin_seed:13L ~epochs:64 ~window:2 ~buffer_slack:2
      ~buffer_cap:3 ()
  in
  let drops = ref 0 in
  let tracer =
    Bca_obs.Trace.stream (fun { Bca_obs.Event.ev; _ } ->
        match ev with Bca_obs.Event.Buffer_drop _ -> incr drops | _ -> ())
  in
  let st, _ = Rsm.create ~tracer p ~me:0 in
  (* epochs 0..1 open; 2..3 bufferable; cap 3 messages per epoch *)
  for i = 0 to 9 do
    let m =
      Rsm.Epoch (2, Bca_rsm.Acs.Rbc (1, Bca_baselines.Bracha.Echo (string_of_int i)))
    in
    ignore (Rsm.handle st ~from:1 m : Rsm.msg list)
  done;
  Alcotest.(check int) "per-epoch cap holds" 3 (Rsm.buffered_msgs st);
  Alcotest.(check int) "overflow shed with events" 7 !drops;
  (* far beyond the slack horizon: shed outright *)
  let far = Rsm.Epoch (40, Bca_rsm.Acs.Rbc (1, Bca_baselines.Bracha.Echo "far")) in
  ignore (Rsm.handle st ~from:1 far : Rsm.msg list);
  Alcotest.(check int) "far-future shed" 8 !drops;
  Alcotest.(check int) "held unchanged" 3 (Rsm.buffered_msgs st)

(* ------------------------------------------------------------------ *)
(* What a finished log keeps                                            *)
(* ------------------------------------------------------------------ *)

(* A 400-epoch log of 25 64-byte transactions per epoch, every
   transaction submitted to all four replicas, run to termination under
   the FIFO schedule.  What a replica still has to keep per finished
   epoch is tied to the committed payload: each of the n accepted batches
   (held for pulls; identical batches here, so n copies of the epoch's
   payload), the log itself and the dedup table - about 7.6 bytes per
   committed payload byte, ACS records included.  A finished epoch that
   kept its live protocol state (every ABA round, the echo and ready
   tallies, the proposed batch, the submission table) measured 20.7. *)
let test_finished_epochs_bounded () =
  let n = 4 and epochs = 400 and per_epoch = 25 and tx_bytes = 64 in
  let p =
    Rsm.mk_params ~cfg:(Types.cfg ~n ~t:1) ~coin_seed:77L ~epochs ~window:4
      ~batch:{ Rsm.max_txs = per_epoch; max_bytes = 64 * 1024 } ()
  in
  let txs =
    List.init (epochs * per_epoch) (fun i ->
        let head = Printf.sprintf "m%07d" i in
        head ^ String.make (tx_bytes - String.length head) '.')
  in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let st, init = Rsm.create p ~me:pid in
        states.(pid) <- Some st;
        List.iter (fun tx -> ignore (Rsm.submit st tx : bool)) txs;
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let outcome = Async.run ~max_deliveries:2_000_000 exec Async.fifo_scheduler in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  let l = check_logs states in
  let payload_bytes = List.fold_left (fun acc tx -> acc + String.length tx) 0 l in
  Alcotest.(check bool) "most epochs carry a full batch" true
    (payload_bytes >= (epochs - 8) * per_epoch * tx_bytes);
  Array.iteri
    (fun pid st ->
      match st with
      | None -> Alcotest.fail "replica missing"
      | Some st ->
        let bytes = 8 * Obj.reachable_words (Obj.repr st) in
        let ratio = Float.of_int bytes /. Float.of_int payload_bytes in
        if ratio > 10. then
          Alcotest.failf "replica %d keeps %d B per epoch for %d B of committed payload (%.1fx > 10x)"
            pid (bytes / epochs) (payload_bytes / epochs) ratio)
    states

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

let test_slot_commit_events () =
  let order = ref [] in
  let commits = ref [] in
  let params seed =
    ignore seed;
    mk_params ~window:3 ~epochs:4 ~seed:21L ()
  in
  let n = 4 in
  let states = Array.make n None in
  let tracer_events = ref 0 in
  let exec =
    Async.create ~n ~make:(fun pid ->
        let tracer =
          if pid = 0 then
            Bca_obs.Trace.stream (fun { Bca_obs.Event.ev; _ } ->
                match ev with
                | Bca_obs.Event.Slot_commit { slot; _ } ->
                  incr tracer_events;
                  order := slot :: !order
                | _ -> ())
          else Bca_obs.Trace.null
        in
        let on_commit ~epoch txs = if pid = 0 then commits := (epoch, txs) :: !commits in
        let st, init = Rsm.create ~on_commit ~tracer (params 21L) ~me:pid in
        states.(pid) <- Some st;
        ignore (Rsm.submit st (Printf.sprintf "tx-%d" pid) : bool);
        (Rsm.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  let outcome = Async.run ~max_deliveries:2_000_000 exec (Async.random_scheduler (Rng.create 21L)) in
  Alcotest.(check bool) "terminated" true (outcome = `All_terminated);
  Alcotest.(check (list int)) "slots committed in order" [ 0; 1; 2; 3 ]
    (List.rev !order);
  Alcotest.(check int) "one event per epoch" 4 !tracer_events;
  let committed = List.concat_map snd (List.rev !commits) in
  (match states.(0) with
  | Some st ->
    Alcotest.(check (list string)) "callback stream equals log" (Rsm.log st) committed
  | None -> Alcotest.fail "replica 0 missing")

let () =
  Alcotest.run "rsm"
    [ ( "windowed log",
        [ Alcotest.test_case "all honest" `Quick test_all_honest;
          Alcotest.test_case "cross-replica dedup" `Quick test_cross_replica_dedup;
          Alcotest.test_case "submit dedup" `Quick test_submit_dedup;
          Alcotest.test_case "batch cut" `Quick test_batch_cut;
          Alcotest.test_case "netstring roundtrip" `Quick test_netstring_roundtrip;
          Alcotest.test_case "silent replica" `Quick test_silent_replica;
          Alcotest.test_case "pull after every holder finished its log" `Quick
            test_pull_after_log_terminated;
          Alcotest.test_case "finished epochs keep a payload-bounded state" `Quick
            test_finished_epochs_bounded ] );
      ( "chaos",
        [ QCheck_alcotest.to_alcotest prop_prefix_consistency;
          Alcotest.test_case "equivocating proposer, seeds 1-50" `Quick test_equivocating_proposer;
          Alcotest.test_case "bounded buffering" `Quick test_buffer_bounded ] );
      ( "observability",
        [ Alcotest.test_case "slot-commit events" `Quick test_slot_commit_events ] ) ]
