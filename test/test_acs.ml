(* Tests for the ACS application: agreement on the subset, validity
   (>= n - t slots, honest proposals only unless delivered), termination,
   behaviour with a crashed proposer, the hash-based broadcast's payload
   pull, an equivocating proposer, and what a terminated instance still
   answers. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Acs = Bca_rsm.Acs
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Monitor = Bca_netsim.Monitor
module Bracha = Bca_baselines.Bracha
module Sha256 = Bca_crypto.Sha256
module Cluster = Bca_test_helpers.Cluster

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

(* ------------------------------------------------------------------ *)
(* The payload pull                                                     *)
(* ------------------------------------------------------------------ *)

let msgs = Alcotest.testable Bracha.pp_msg ( = )

(* One receiver, message by message: a payload is kept only when its
   digest has t + 1 readies, so a payload that arrives too early, or one
   that hashes to an unvouched digest, is dropped - and a dropped payload
   leaves the receiver pulling at 2t + 1 readies. *)
let test_forged_payload_dropped () =
  let r = Bracha.create cfg ~me:3 ~sender:0 in
  let vouched = "vouched" and forged = "forged" in
  let h = Sha256.digest vouched in
  let handle from m = Bracha.handle r ~from m in
  Alcotest.(check (list msgs)) "one ready: nothing yet" [] (handle 1 (Bracha.Ready h));
  Alcotest.(check (list msgs)) "payload before t + 1 readies: dropped" []
    (handle 1 (Bracha.Payload vouched));
  Alcotest.(check (list msgs)) "t + 1 readies: amplify" [ Bracha.Ready h ]
    (handle 2 (Bracha.Ready h));
  Alcotest.(check (list msgs)) "2t + 1 readies, no payload held: pull" [ Bracha.Fetch h ]
    (handle 0 (Bracha.Ready h));
  Alcotest.(check (list msgs)) "forged payload: dropped" [] (handle 1 (Bracha.Payload forged));
  Alcotest.(check (option string)) "nothing delivered from a forgery" None (Bracha.delivered r);
  Alcotest.(check (list msgs)) "vouched payload kept" [] (handle 2 (Bracha.Payload vouched));
  Alcotest.(check (option string)) "delivered" (Some vouched) (Bracha.delivered r);
  Alcotest.(check (list msgs)) "a holder answers a pull" [ Bracha.Payload vouched ]
    (handle 1 (Bracha.Fetch h));
  Alcotest.(check (list msgs)) "once per requester" [] (handle 1 (Bracha.Fetch h));
  Alcotest.(check (list msgs)) "unknown digest: no answer" []
    (handle 2 (Bracha.Fetch (Sha256.digest forged)))

let initial_of j = function
  | Acs.Rbc (j', Bracha.Initial _) -> j = j'
  | Acs.Rbc _ | Acs.Aba _ -> false

(* Replica [r] never receives slot [j]'s [Initial].  Phase one delivers
   only to the other replicas, until every one of them has terminated;
   phase two lets [r] catch up.  [r] reaches 2t + 1 readies for slot [j]
   without its payload and can deliver only by pulling it from replicas
   that terminated long ago.  A forged payload for slot [j] is in flight
   to [r] as well.  Returns the outcome, the outputs and the number of
   genuine payloads [r] received for slot [j]. *)
let run_pull ~seed =
  let r = 3 and j = 0 in
  let params = { Acs.cfg; coin_seed = Int64.add seed 7L } in
  let states = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        let st, init = Acs.create params ~me:pid ~proposal:(Printf.sprintf "p%d" pid) in
        states.(pid) <- Some st;
        (Acs.node st, List.map (fun m -> Node.Broadcast m) init))
  in
  List.iter
    (fun (e : Acs.msg Async.envelope) ->
      if e.dst = r && initial_of j e.payload then ignore (Async.drop_eid exec e.eid))
    (Async.inflight exec);
  let pulled = ref 0 in
  Async.set_observer exec (fun e ->
      match e.Async.payload with
      | Acs.Rbc (j', Bracha.Payload "p0") when e.Async.dst = r && j' = j -> incr pulled
      | Acs.Rbc _ | Acs.Aba _ -> ());
  let rng = Rng.create seed in
  let others_done () =
    List.for_all (fun p -> Option.fold ~none:false ~some:Acs.terminated states.(p)) [ 0; 1; 2 ]
  in
  ignore
    (Async.run ~stop_when:(fun _ -> others_done ()) exec (Cluster.random_avoiding rng ~pid:r)
      : Async.outcome);
  Alcotest.(check bool) "every holder terminated first" true (others_done ());
  Alcotest.(check bool) "the laggard has no output yet" true
    (Option.bind states.(r) Acs.output = None);
  Async.inject exec ~src:1 [ Node.Unicast (r, Acs.Rbc (j, Bracha.Payload "forged")) ];
  let outcome = Async.run exec (Async.random_scheduler rng) in
  (outcome, Array.map (fun st -> Option.bind st Acs.output) states, !pulled)

let test_pull_after_termination () =
  List.iter
    (fun seed ->
      let outcome, outputs, pulled = run_pull ~seed in
      Alcotest.(check bool) "all terminated" true (outcome = `All_terminated);
      Alcotest.(check bool) "the laggard pulled slot 0" true (pulled > 0);
      match outputs.(0) with
      | None -> Alcotest.fail "no output"
      | Some o ->
        Array.iter
          (fun o' ->
            Alcotest.(check (option (list (pair int string)))) "same subset" (Some o) o')
          outputs;
        Alcotest.(check (option string)) "slot 0 accepted with its genuine payload" (Some "p0")
          (List.assoc_opt 0 o))
    [ 1L; 2L; 3L ]

(* ------------------------------------------------------------------ *)
(* An equivocating proposer                                             *)
(* ------------------------------------------------------------------ *)

(* Replica 3 proposes two payloads at once: [a] to replica 0, [b] to
   replica 1 and either to replica 2.  It echoes and readies one of them
   to everyone (or, on some seeds, stays quiet), and answers every pull
   with the payload that does not match the pulled digest. *)
let equivocator rng =
  let a = "byz-a" and b = "byz-b" in
  let ha = Sha256.digest a in
  let wrong h = if String.equal h ha then b else a in
  let backed = Sha256.digest (if Rng.bool rng then a else b) in
  let rbc m = Acs.Rbc (3, m) in
  let node =
    Node.make
      ~receive:(fun ~src m ->
        match m with
        | Acs.Rbc (3, Bracha.Fetch h) -> [ Node.Unicast (src, rbc (Bracha.Payload (wrong h))) ]
        | Acs.Rbc _ | Acs.Aba _ -> [])
      ~terminated:(fun () -> true)
      ()
  in
  let votes =
    if Rng.int rng 4 = 0 then []
    else [ Node.Broadcast (rbc (Bracha.Echo backed)); Node.Broadcast (rbc (Bracha.Ready backed)) ]
  in
  ( node,
    [ Node.Unicast (0, rbc (Bracha.Initial a));
      Node.Unicast (1, rbc (Bracha.Initial b));
      Node.Unicast (2, rbc (Bracha.Initial (if Rng.bool rng then a else b))) ]
    @ votes )

(* Seeds 1-50: honest outputs agree (the multivalued monitor watches the
   decided values, with unanimous honest proposals on even seeds), and
   every accepted honest slot carries its genuine proposal.  Across the
   seeds, some wrong answers to pulls must have reached honest replicas
   and some runs must have accepted the equivocator's slot. *)
let test_equivocating_proposer () =
  let wrong_answers = ref 0 and accepted = ref 0 in
  for seed = 1 to 50 do
    let seed64 = Int64.of_int seed in
    let params = { Acs.cfg; coin_seed = Int64.add seed64 11L } in
    let proposal pid = if seed mod 2 = 0 then "v" else Printf.sprintf "p%d" pid in
    let states = Array.make 4 None in
    let rng_byz = Rng.create (Int64.add seed64 1000L) in
    let exec =
      Async.create ~n:4 ~make:(fun pid ->
          if pid = 3 then equivocator rng_byz
          else begin
            let st, init = Acs.create params ~me:pid ~proposal:(proposal pid) in
            states.(pid) <- Some st;
            (Acs.node st, List.map (fun m -> Node.Broadcast m) init)
          end)
    in
    let monitor =
      Monitor.Multi.create ~n:4
        ~honest:(fun pid -> pid <> 3)
        ~proposals:(Array.init 4 proposal)
        ~decision:(fun pid -> Option.bind states.(pid) Acs.decided)
        ()
    in
    Async.set_observer exec (fun e ->
        Monitor.Multi.on_delivery monitor;
        match e.Async.payload with
        | Acs.Rbc (3, Bracha.Payload _) when e.Async.src = 3 -> incr wrong_answers
        | Acs.Rbc _ | Acs.Aba _ -> ());
    let outcome =
      Async.run ~max_deliveries:500_000 exec (Async.random_scheduler (Rng.create seed64))
    in
    Monitor.Multi.final_check monitor;
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check bool) (name "terminated") true (outcome = `All_terminated);
    Alcotest.(check bool) (name "monitor clean") true (Monitor.Multi.ok monitor);
    let outs = List.filter_map (fun pid -> Option.bind states.(pid) Acs.output) [ 0; 1; 2 ] in
    match outs with
    | [ o; o1; o2 ] ->
      Alcotest.(check (list (pair int string))) (name "same subset at 1") o o1;
      Alcotest.(check (list (pair int string))) (name "same subset at 2") o o2;
      if List.mem_assoc 3 o then incr accepted;
      List.iter
        (fun (j, p) ->
          if j <> 3 then Alcotest.(check string) (name "genuine honest payload") (proposal j) p)
        o
    | _ -> Alcotest.fail (name "missing output")
  done;
  Alcotest.(check bool) "wrong answers reached honest replicas" true (!wrong_answers > 0);
  Alcotest.(check bool) "the equivocator's slot was accepted somewhere" true (!accepted > 0)

(* ------------------------------------------------------------------ *)
(* A terminated instance                                                *)
(* ------------------------------------------------------------------ *)

(* Termination retires an instance down to its output and its pull
   state.  Recorded at the delivery that terminates each replica,
   [output] and [decided] read the same afterwards; the retired instance
   still answers a [Fetch] for an accepted payload once per requester,
   and nothing else. *)
let test_retired_instance () =
  let params = { Acs.cfg; coin_seed = 19L } in
  let proposal pid = if pid < 2 then "v" else Printf.sprintf "p%d" pid in
  let states = Array.make 4 None and at_end = Array.make 4 None in
  let exec =
    Async.create ~n:4 ~make:(fun pid ->
        let st, init = Acs.create params ~me:pid ~proposal:(proposal pid) in
        states.(pid) <- Some st;
        let receive ~src m =
          let out = Acs.handle st ~from:src m in
          if Acs.terminated st && at_end.(pid) = None then
            at_end.(pid) <- Some (Acs.output st, Acs.decided st);
          List.map (fun m -> Node.Broadcast m) out
        in
        ( Node.make ~receive ~terminated:(fun () -> Acs.terminated st) (),
          List.map (fun m -> Node.Broadcast m) init ))
  in
  Alcotest.(check bool) "terminated" true (Async.run exec Async.fifo_scheduler = `All_terminated);
  let subset = Alcotest.(option (list (pair int string))) in
  Array.iteri
    (fun pid st ->
      match (st, at_end.(pid)) with
      | Some st, Some (output, decided) ->
        Alcotest.(check subset) "output as at termination" output (Acs.output st);
        Alcotest.(check (option string)) "decided as at termination" decided (Acs.decided st);
        Alcotest.(check (option string)) "the plurality" (Some "v") (Acs.decided st);
        let j, payload =
          match Acs.output st with
          | Some (slot :: _) -> slot
          | Some [] | None -> Alcotest.fail "empty output"
        in
        let fetch = Acs.Rbc (j, Bracha.Fetch (Sha256.digest payload)) in
        let answer = [ Acs.Rbc (j, Bracha.Payload payload) ] in
        let requester = (pid + 1) mod 4 in
        Alcotest.(check bool) "first pull answered" true
          (Acs.handle st ~from:requester fetch = answer);
        Alcotest.(check bool) "repeat pull ignored" true (Acs.handle st ~from:requester fetch = []);
        Alcotest.(check bool) "another requester answered" true
          (Acs.handle st ~from:((pid + 2) mod 4) fetch = answer);
        Alcotest.(check bool) "other traffic ignored" true
          (Acs.handle st ~from:requester (Acs.Rbc (j, Bracha.Ready (Sha256.digest payload))) = [])
      | _ -> Alcotest.fail "replica missing or never terminated")
    states

(* FNV-1a 64-bit reference vectors, and no allocation per byte. *)
let test_digest () =
  List.iter
    (fun (s, hex) -> Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" s) hex (Printf.sprintf "%016Lx" (Acs.digest s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  let s = String.make 100_000 'x' in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Acs.digest s) : int64);
  let words = Gc.minor_words () -. before in
  if words > 64. then Alcotest.failf "digest of 100 kB allocated %.0f words" words

let () =
  Alcotest.run "acs"
    [ ( "acs",
        [ QCheck_alcotest.to_alcotest prop_acs_all_honest;
          QCheck_alcotest.to_alcotest prop_acs_crashed_proposer ] );
      ( "pull",
        [ Alcotest.test_case "forged payload dropped" `Quick test_forged_payload_dropped;
          Alcotest.test_case "pull after every holder terminated" `Quick
            test_pull_after_termination;
          Alcotest.test_case "equivocating proposer, seeds 1-50" `Quick
            test_equivocating_proposer ] );
      ( "terminated",
        [ Alcotest.test_case "retired instance answers as at termination" `Quick
            test_retired_instance;
          Alcotest.test_case "FNV-1a digest vectors" `Quick test_digest ] ) ]
