(* Pool mechanics and scheduler-equivalence tests.

   The indexed schedulers replaced the list-materializing ones on the
   simulator hot path; the differential tests here pin the contract that made
   that swap safe: for equal seeds, the indexed random / FIFO / skewed
   policies deliver exactly the same envelope sequence as the legacy
   list-based implementations they replaced. *)

module Pool = Bca_netsim.Pool
module Node = Bca_netsim.Node
module Async = Bca_netsim.Async_exec
module Rng = Bca_util.Rng

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let contents p =
  List.init (Pool.length p) (Pool.get p)

let test_swap_remove_semantics () =
  let p = Pool.create () in
  List.iter (Pool.add p) [ 10; 20; 30; 40 ];
  let x = Pool.swap_remove p 1 in
  Alcotest.(check int) "returns slot 1" 20 x;
  (* the last element must have moved into the vacated slot *)
  Alcotest.(check (list int)) "last fills the hole" [ 10; 40; 30 ] (contents p);
  let y = Pool.swap_remove p 2 in
  Alcotest.(check int) "removing the last slot" 30 y;
  Alcotest.(check (list int)) "tail removal shifts nothing" [ 10; 40 ] (contents p)

let test_growth () =
  let p = Pool.create () in
  (* cross the initial capacity (16) and several doublings *)
  for i = 0 to 99 do
    Pool.add p i;
    Alcotest.(check int) "length tracks adds" (i + 1) (Pool.length p)
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "slot order preserved across growth" i (Pool.get p i)
  done;
  Alcotest.(check_raises) "get out of range" (Invalid_argument "Pool.get") (fun () ->
      ignore (Pool.get p 100 : int))

let test_filter_in_place () =
  let p = Pool.create () in
  List.iter (Pool.add p) [ 1; 2; 3; 4; 5; 6; 7 ];
  Pool.filter_in_place p (fun x -> x mod 2 = 1);
  Alcotest.(check (list int)) "keeps order of survivors" [ 1; 3; 5; 7 ] (contents p);
  Pool.filter_in_place p (fun _ -> false);
  Alcotest.(check bool) "filter to empty" true (Pool.is_empty p)

let test_iteri () =
  let p = Pool.create () in
  List.iter (Pool.add p) [ 5; 6; 7 ];
  let seen = ref [] in
  Pool.iteri (fun i x -> seen := (i, x) :: !seen) p;
  Alcotest.(check (list (pair int int))) "iteri in slot order" [ (0, 5); (1, 6); (2, 7) ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Differential scheduler tests                                         *)
(* ------------------------------------------------------------------ *)

type ping = Ping of int | Pong of int

(* Every party pings everyone; each ping is ponged back; termination after
   n pongs.  Enough cross-traffic to keep a few dozen envelopes in flight. *)
let ping_cluster n =
  let pongs = Array.make n 0 in
  let make pid =
    let node =
      Node.make
        ~receive:(fun ~src m ->
          match m with
          | Ping k -> [ Node.Unicast (src, Pong k) ]
          | Pong _ ->
            pongs.(pid) <- pongs.(pid) + 1;
            [])
        ~terminated:(fun () -> pongs.(pid) >= n)
        ()
    in
    (node, [ Node.Broadcast (Ping pid) ])
  in
  Async.create ~n ~make

(* Replicas of the historical list-based schedulers: the baselines the
   indexed policies must match.  Each picks an envelope from the (never
   empty) in-flight list, which is in pool-slot order, so the pick's
   position in it is its slot. *)
let of_list pick =
  Async.indexed_scheduler (fun ~delivered:_ exec ->
      let envs = Async.inflight exec in
      let chosen = (pick envs : _ Async.envelope).Async.eid in
      let rec slot i = function
        | [] -> None
        | (e : _ Async.envelope) :: rest -> if e.Async.eid = chosen then Some i else slot (i + 1) rest
      in
      slot 0 envs)

let legacy_random rng = of_list (fun envs -> Rng.pick rng envs)

let legacy_fifo () =
  of_list (fun envs ->
      List.fold_left
        (fun acc (e : _ Async.envelope) -> if e.Async.eid < acc.Async.eid then e else acc)
        (List.hd envs) envs)

let legacy_skewed rng ~slow ~bias =
  of_list (fun envs ->
      let fast = List.filter (fun (e : _ Async.envelope) -> not (List.mem e.Async.dst slow)) envs in
      if fast <> [] && (List.length fast = List.length envs || Rng.int rng bias <> 0) then
        Rng.pick rng fast
      else Rng.pick rng envs)

let trace_of ~n scheduler =
  let exec = ping_cluster n in
  let trace = ref [] in
  Async.set_observer exec (fun env -> trace := env.Async.eid :: !trace);
  let outcome = Async.run exec scheduler in
  Alcotest.(check bool) "terminates" true (outcome = `All_terminated);
  List.rev !trace

let same_trace ~n mk_new mk_legacy =
  trace_of ~n (mk_new ()) = trace_of ~n (mk_legacy ())

let random_matches_legacy =
  QCheck2.Test.make ~count:50 ~name:"indexed random == legacy list random (same seed)"
    QCheck2.Gen.(pair (int_range 2 6) (int_bound 100000))
    (fun (n, seed) ->
      let seed = Int64.of_int seed in
      same_trace ~n
        (fun () -> Async.random_scheduler (Rng.create seed))
        (fun () -> legacy_random (Rng.create seed)))

let skewed_matches_legacy =
  QCheck2.Test.make ~count:50 ~name:"indexed skewed == legacy list skewed (same seed)"
    QCheck2.Gen.(pair (int_range 3 6) (int_bound 100000))
    (fun (n, seed) ->
      let seed = Int64.of_int seed in
      let slow = [ 0; n - 1 ] and bias = 4 in
      same_trace ~n
        (fun () -> Async.skewed_scheduler (Rng.create seed) ~slow ~bias)
        (fun () -> legacy_skewed (Rng.create seed) ~slow ~bias))

let test_fifo_matches_legacy () =
  for n = 2 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "heap fifo == legacy fifo at n=%d" n)
      true
      (same_trace ~n (fun () -> Async.fifo_scheduler) (fun () -> legacy_fifo ()))
  done

let test_fifo_order_with_drops () =
  (* exercise the heap's lazy deletion: remove envelopes behind its back
     (drop_outgoing and out-of-band deliver_eid) mid-run, and check the
     delivered eids still come out in increasing order *)
  let exec = ping_cluster 5 in
  let delivered = ref [] in
  Async.set_observer exec (fun env -> delivered := env.Async.eid :: !delivered);
  for _ = 1 to 5 do
    ignore (Async.step exec Async.fifo_scheduler)
  done;
  Async.drop_outgoing exec ~src:2 ~keep:(fun _ -> false);
  (* deliver the newest in-flight envelope out of band, then resume FIFO *)
  let max_eid =
    List.fold_left (fun acc (e : _ Async.envelope) -> max acc e.Async.eid) (-1)
      (Async.inflight exec)
  in
  Alcotest.(check bool) "out-of-band deliver" true (Async.deliver_eid exec max_eid);
  let outcome = Async.run exec Async.fifo_scheduler in
  (* dropping party 2's sends starves the others of pongs, so the run may
     legitimately drain instead of terminating; ordering is what matters *)
  Alcotest.(check bool) "drains or terminates" true
    (outcome = `All_terminated || outcome = `Quiescent);
  let fifo_part =
    (* everything delivered after the out-of-band jump must be increasing *)
    match List.rev !delivered with
    | [] -> []
    | trace ->
      let rec after = function
        | [] -> []
        | e :: rest -> if e = max_eid then rest else after rest
      in
      after trace
  in
  Alcotest.(check bool) "fifo resumes in eid order" true
    (List.sort compare fifo_part = fifo_part)

let test_fifo_drop_exactly_once () =
  (* drop_outgoing x the FIFO heap's lazy deletion: stale heap entries must
     be skipped, a dropped envelope must never surface, and no envelope may
     be delivered twice (the heap keeps its own copy of every eid, so a
     stale-entry bug would replay one) *)
  let exec = ping_cluster 6 in
  let delivered = ref [] in
  Async.set_observer exec (fun env -> delivered := env.Async.eid :: !delivered);
  (* seed the heap with everything in flight, then mutate behind its back *)
  for _ = 1 to 8 do
    ignore (Async.step exec Async.fifo_scheduler)
  done;
  let dropped = ref [] in
  List.iter
    (fun (e : _ Async.envelope) ->
      if e.Async.src = 1 || e.Async.src = 4 then dropped := e.Async.eid :: !dropped)
    (Async.inflight exec);
  Async.drop_outgoing exec ~src:1 ~keep:(fun _ -> false);
  Async.drop_outgoing exec ~src:4 ~keep:(fun _ -> false);
  (* a few more FIFO steps, then a second drop wave, so stale entries sit
     both at the heap's top and in its middle *)
  for _ = 1 to 5 do
    ignore (Async.step exec Async.fifo_scheduler)
  done;
  (match Async.inflight exec with
  | (e : _ Async.envelope) :: _ ->
    dropped := e.Async.eid :: !dropped;
    Alcotest.(check bool) "drop_eid removes" true (Async.drop_eid exec e.Async.eid <> None);
    Alcotest.(check bool) "double drop fails" true (Async.drop_eid exec e.Async.eid = None)
  | [] -> ());
  let outcome = Async.run exec Async.fifo_scheduler in
  Alcotest.(check bool) "drains or terminates" true
    (outcome = `All_terminated || outcome = `Quiescent);
  let trace = List.rev !delivered in
  List.iter
    (fun eid ->
      Alcotest.(check bool)
        (Printf.sprintf "dropped eid %d never delivered" eid)
        false (List.mem eid trace))
    !dropped;
  Alcotest.(check int) "no eid delivered twice" (List.length trace)
    (List.length (List.sort_uniq compare trace))

let test_indexed_scheduler_api () =
  (* a custom indexed policy: always deliver slot 0 *)
  let exec = ping_cluster 3 in
  let sched = Async.indexed_scheduler (fun ~delivered:_ t -> if Async.pool_size t = 0 then None else Some 0) in
  let outcome = Async.run exec sched in
  Alcotest.(check bool) "slot-0 policy terminates" true (outcome = `All_terminated)

let test_deliver_eid_consumes () =
  let exec = ping_cluster 3 in
  let (e : _ Async.envelope) = List.hd (Async.inflight exec) in
  Alcotest.(check bool) "first delivery" true (Async.deliver_eid exec e.Async.eid);
  Alcotest.(check bool) "second delivery fails" false (Async.deliver_eid exec e.Async.eid)

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "swap_remove semantics" `Quick test_swap_remove_semantics;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "filter_in_place" `Quick test_filter_in_place;
          Alcotest.test_case "iteri" `Quick test_iteri ] );
      ( "schedulers",
        [ QCheck_alcotest.to_alcotest random_matches_legacy;
          QCheck_alcotest.to_alcotest skewed_matches_legacy;
          Alcotest.test_case "fifo == legacy fifo" `Quick test_fifo_matches_legacy;
          Alcotest.test_case "fifo with drops" `Quick test_fifo_order_with_drops;
          Alcotest.test_case "fifo drop exactly-once" `Quick test_fifo_drop_exactly_once;
          Alcotest.test_case "indexed policy api" `Quick test_indexed_scheduler_api;
          Alcotest.test_case "deliver_eid consumes" `Quick test_deliver_eid_consumes ] ) ]
