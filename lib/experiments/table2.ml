module Value = Bca_util.Value
module Types = Bca_core.Types
module Coin = Bca_coin.Coin
module Lockstep = Bca_netsim.Lockstep
module Node = Bca_netsim.Node
module Bca_byz = Bca_core.Bca_byz
module Gbca_byz = Bca_core.Gbca_byz
module Stack_strong = Bca_core.Aba.Byz_strong_stack
module Stack_weak = Bca_core.Aba.Byz_weak_stack

let strong_t1_expected = 17.0

let strong_t1_critical_path = 15.0

let weak_t1_expected ~eps = (6.0 /. eps) +. 6.0

(* Fixed cast: three honest parties and one Byzantine party. *)
let x = 0 (* the designated decider / grade-1 holder of the bound value *)

let y = 1 (* the honest supporter steered to vote for the bound value *)

let s = 2 (* the honest party steered to bottom *)

let b_pid = 3 (* the Byzantine party *)

let n = 4

let tf = 1

let honest pid = pid <> b_pid

(* ------------------------------------------------------------------ *)
(* Strong-coin, t-unpredictable: Theorem 4.11's worst case.            *)
(*                                                                     *)
(* Per mixed round with bound value b (held by X): the adversary makes *)
(* X decide b via an echo3 quorum {X, Y, B} while Y and S decide       *)
(* bottom.  X's and Y's approvedVals are kept at {b} long enough by    *)
(* deferring echo(1-b) messages (condition (1) of lines 10/16 would    *)
(* otherwise pre-empt the value path), and released afterwards so      *)
(* everyone still decides.  The coin matches b with probability 1/2;   *)
(* on a match X commits and the bottom parties adopt b, giving         *)
(* unanimous (3-step) rounds until the coin repeats.                   *)
(* ------------------------------------------------------------------ *)

(* Generalized cast for arbitrary n = 3t + 1: X = 0 is the designated
   decider, parties 1..t are the honest voters steered to the bound value,
   parties t+1..2t decide bottom, and 2t+1..3t are Byzantine. *)
let strong_t1_once_general ~tf ~seed =
  (* lint: allow quorum -- constructing the n = 3t+1 configuration under test, not checking a threshold *)
  let n = (3 * tf) + 1 in
  let x = 0 in
  let ys = List.init tf (fun i -> 1 + i) in
  (* lint: allow quorum -- pid block offsets into the party numbering, not a threshold *)
  let ss = List.init tf (fun i -> 1 + tf + i) in
  (* Byzantine bloc: pids 2t+1 .. 3t, driven by byz_tick below *)
  let honest_pids = (x :: ys) @ ss in
  let honest pid = pid <= 2 * tf in
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create Coin.Strong ~n ~degree:tf ~seed in
  let params =
    { Stack_strong.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) }
  in
  let states : Stack_strong.t option array = Array.make n None in
  let st pid = Option.get states.(pid) in
  let inputs = Array.init n (fun pid -> if pid = x then Value.V0 else Value.V1) in
  (* Round bookkeeping shared by B's behaviour and the deferral rules. *)
  let bound : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let round_mixed r =
    (* All honest parties advance in lockstep, so when any of them is in
       round r its estimate is its round-r input. *)
    let e p = Stack_strong.est (st p) in
    if List.for_all (fun p -> Value.equal (e p) (e x)) honest_pids then None
    else begin
      let b =
        match Hashtbl.find_opt bound r with
        | Some b -> b
        | None ->
          let b = e x in
          Hashtbl.replace bound r b;
          b
      in
      Some b
    end
  in
  let sent_echo3 p r =
    match Stack_strong.instance (st p) ~round:r with
    | None -> false
    | Some inst -> Bca_byz.echo3_sent inst <> None
  in
  let x_decided r =
    match Stack_strong.instance (st x) ~round:r with
    | None -> false
    | Some inst -> Bca_byz.decision inst <> None
  in
  (* The Byzantine bloc's opening volley per mixed round: echo both values,
     vote for the bound value towards X and the voters, and hand X its
     echo3 quorum completion. *)
  let opened : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let byz_tick b_me ~step:_ =
    if List.exists (fun p -> states.(p) = None) honest_pids then []
    else begin
      let r = Stack_strong.current_round (st x) in
      match round_mixed r with
      | Some b when not (Hashtbl.mem opened ((r * n) + b_me)) ->
        Hashtbl.replace opened ((r * n) + b_me) ();
        let w = Value.negate b in
        let m payload = Stack_strong.Bca (r, payload) in
        [ Node.Broadcast (m (Bca_byz.MEcho b));
          Node.Broadcast (m (Bca_byz.MEcho w));
          Node.Broadcast (m (Bca_byz.MEcho2 b));
          Node.Unicast (x, m (Bca_byz.MEcho3 (Types.Val b))) ]
      | _ -> []
    end
  in
  let make pid =
    if not (honest pid) then
      ( Node.make
          ~receive:(fun ~src:_ _ -> [])
          ~terminated:(fun () -> true)
          ~tick:(byz_tick pid) (),
        [] )
    else begin
      let state, init = Stack_strong.create params ~me:pid ~input:inputs.(pid) in
      states.(pid) <- Some state;
      (Stack_strong.node state, List.map (fun m -> Node.Broadcast m) init)
    end
  in
  (* Deferral rules: echo(1-b) is slow towards X until X decided, and slow
     towards every voter until that voter cast its echo3 - this keeps their
     approvedVals at {b} so the value conditions fire before the bottom
     priority. *)
  let order ~step:_ ~dst envs =
    List.filter
      (fun (env : _ Lockstep.envelope) ->
        match env.Lockstep.payload with
        | Stack_strong.Bca (r, Bca_byz.MEcho w) ->
          (match Hashtbl.find_opt bound r with
          | Some b when Value.equal w (Value.negate b) ->
            if dst = x && env.Lockstep.src <> x then x_decided r
            else if List.mem dst ys && env.Lockstep.src <> dst then sent_echo3 dst r
            else true
          | _ -> true)
        | _ -> true)
      envs
  in
  let res = Lockstep.run ~n ~honest ~make ~order ~max_steps:2000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  float_of_int res.Lockstep.depth

let strong_t1_once ~seed = strong_t1_once_general ~tf:1 ~seed

let strong_t1 ~runs ~seed = Mc.summarize ~runs ~seed strong_t1_once

let strong_t1_n ~n:n' ~runs ~seed =
  let tf = (n' - 1) / 3 in
  Mc.summarize ~runs ~seed (fun ~seed -> strong_t1_once_general ~tf ~seed)

(* ------------------------------------------------------------------ *)
(* Weak-coin: Theorem 5.4's worst case - one grade-1 party per round.  *)
(*                                                                     *)
(* All honest parties legitimately approve both values (no deferrals   *)
(* needed: Algorithm 6 prefers the value condition at every stage).    *)
(* The scheduler only picks which approval lands first (X, Y: b first; *)
(* S: 1-b first), and B ships b-certificates to X and Y so that X ends *)
(* at grade 1 for b while Y and S end at grade 0.  In adversarial coin *)
(* rounds every grade-0 party is steered to 1-b, so progress happens   *)
(* exactly on the epsilon-good event "all parties draw b".             *)
(* ------------------------------------------------------------------ *)

let weak_t1_once ~eps ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create (Coin.Eps eps) ~n ~degree:tf ~seed in
  let params =
    { Stack_weak.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) }
  in
  let states : Stack_weak.t option array = Array.make n None in
  let st pid = Option.get states.(pid) in
  let inputs = [| Value.V0; Value.V1; Value.V1; Value.V0 |] in
  let bound : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let round_mixed r =
    let e p = Stack_weak.est (st p) in
    if Value.equal (e x) (e y) && Value.equal (e y) (e s) then None
    else begin
      let b =
        match Hashtbl.find_opt bound r with
        | Some b -> b
        | None ->
          let b = e x in
          Hashtbl.replace bound r b;
          b
      in
      Some b
    end
  in
  Coin.set_adversary_choice coin (fun ~round ~pid:_ ->
      match Hashtbl.find_opt bound round with
      | Some b -> Value.negate b
      | None -> Value.V0);
  let opened : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let byz_tick ~step:_ =
    if List.exists (fun p -> states.(p) = None) [ x; y; s ] then []
    else begin
      let r = Stack_weak.current_round (st x) in
      match round_mixed r with
      | Some b when not (Hashtbl.mem opened r) ->
        Hashtbl.replace opened r ();
        let m payload = Stack_weak.Bca (r, payload) in
        [ Node.Broadcast (m (Gbca_byz.MEcho b));
          Node.Unicast (x, m (Gbca_byz.MEcho2 b));
          Node.Unicast (y, m (Gbca_byz.MEcho2 b));
          Node.Unicast (x, m (Gbca_byz.MEcho3 (Types.Val b)));
          Node.Unicast (x, m (Gbca_byz.MEcho4 (Types.Val b)));
          Node.Unicast (x, m (Gbca_byz.MEcho5 (Types.Val b))) ]
      | _ -> []
    end
  in
  let make pid =
    if pid = b_pid then
      (Node.make ~receive:(fun ~src:_ _ -> []) ~terminated:(fun () -> true) ~tick:byz_tick (), [])
    else begin
      let state, init = Stack_weak.create params ~me:pid ~input:inputs.(pid) in
      states.(pid) <- Some state;
      (Stack_weak.node state, List.map (fun m -> Node.Broadcast m) init)
    end
  in
  (* Approval ordering: echoes for the bound value first towards X and Y,
     echoes for its complement first towards S. *)
  let order ~step:_ ~dst envs =
    let score (env : _ Lockstep.envelope) =
      match env.Lockstep.payload with
      | Stack_weak.Bca (r, Gbca_byz.MEcho v) ->
        (match Hashtbl.find_opt bound r with
        | Some b ->
          let is_b = Value.equal v b in
          if dst = s then if is_b then 1 else 0 else if is_b then 0 else 1
        | None -> 0)
      | _ -> 0
    in
    List.stable_sort (fun a b -> Int.compare (score a) (score b)) envs
  in
  let res = Lockstep.run ~n ~honest ~make ~order ~max_steps:20_000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  float_of_int res.Lockstep.depth

let weak_t1 ~eps ~runs ~seed =
  Mc.summarize ~runs ~seed (fun ~seed -> weak_t1_once ~eps ~seed)

(* ------------------------------------------------------------------ *)
(* Strong-coin, 2t-unpredictable, EVBCA (Appendix G.1): Lemma G.15.    *)
(*                                                                     *)
(* Round 1 plays the plain split (4 broadcasts).  In every later mixed *)
(* round the optimizations force the bound value to be the previous    *)
(* coin c: the two parties that adopted c open with automatic echo2(c) *)
(* votes; the adversary designates one of them (D) to decide c - with  *)
(* B's echo3 vote timed one step late - and steers the other (O) and   *)
(* the leftover holder (W) to bottom, giving 3-broadcast rounds.  On a *)
(* coin match D commits, the next round is the 2-broadcast adoption    *)
(* round of optimizations 3/4, and unanimous 3-broadcast rounds run    *)
(* until the coin repeats: 4 + 3 + 2 + 3 + 1 = 13 in expectation.      *)
(* ------------------------------------------------------------------ *)

module Evbca = Bca_core.Evbca_byz
module Stack_ev = Bca_core.Aba.Byz_ev_stack

type ev_roles = { c : Value.t; d : int; o : int; w : int }

let strong_2t1_expected = 13.0

let tsig_expected = 9.0

let strong_2t1_once ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create Coin.Strong ~n ~degree:(2 * tf) ~seed in
  let params = { Stack_ev.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
  let states : Stack_ev.t option array = Array.make n None in
  let st pid = Option.get states.(pid) in
  let ready () = not (List.exists (fun p -> states.(p) = None) [ x; y; s ]) in
  let inputs = [| Value.V0; Value.V1; Value.V1; Value.V0 |] in
  let b1 = inputs.(x) in
  let w1 = Value.negate b1 in
  let roles : (int, ev_roles option) Hashtbl.t = Hashtbl.create 16 in
  let roles_for r =
    match Hashtbl.find_opt roles r with
    | Some ro -> ro
    | None ->
      if r < 2 || not (ready ()) then None
      else begin
        let ro =
          match Coin.adversary_peek coin ~round:(r - 1) with
          | Some (Coin.All_same c) ->
            let holders = List.filter (fun p -> Value.equal (Stack_ev.est (st p)) c) [ x; y; s ] in
            (match holders with
            | [ p1; p2 ] ->
              let d = min p1 p2 and o = max p1 p2 in
              let w = List.find (fun p -> p <> p1 && p <> p2) [ x; y; s ] in
              Some { c; d; o; w }
            | _ -> None)
          | Some Coin.Adversarial | None -> None
        in
        Hashtbl.replace roles r ro;
        ro
      end
  in
  let echo3_sent_in p r =
    Stack_ev.terminated (st p)
    ||
    match Stack_ev.instance (st p) ~round:r with
    | None -> false
    | Some inst -> Evbca.echo3_sent inst <> None
  in
  let approved_gt1 p r =
    match Stack_ev.instance (st p) ~round:r with
    | None -> false
    | Some inst -> List.length (Evbca.approved inst) > 1
  in
  let opened : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let late1 = ref false in
  let byz_tick ~step:_ =
    if not (ready ()) then []
    else begin
      let r = List.fold_left (fun acc p -> max acc (Stack_ev.current_round (st p))) 1 [ x; y; s ] in
      let out = ref [] in
      (* Round 1 volley: the plain-BCA split of Theorem 4.11. *)
      if r = 1 && not (Hashtbl.mem opened 1) then begin
        Hashtbl.replace opened 1 ();
        let m payload = Stack_ev.Bca (1, payload) in
        out :=
          [ Node.Broadcast (m (Evbca.MEcho b1));
            Node.Unicast (s, m (Evbca.MEcho w1));
            Node.Unicast (x, m (Evbca.MEcho2 b1));
            Node.Unicast (y, m (Evbca.MEcho2 b1));
            Node.Unicast (x, m (Evbca.MEcho3 (Types.Val b1))) ]
      end;
      if (not !late1) && echo3_sent_in y 1 then begin
        late1 := true;
        out := Node.Unicast (y, Stack_ev.Bca (1, Evbca.MEcho w1)) :: !out
      end;
      (* Mixed rounds >= 2: support the non-bound value's echoes and vote
         for the bound value towards everyone (delivery is timed by the
         deferral rules below). *)
      if r >= 2 && not (Hashtbl.mem opened r) then begin
        match roles_for r with
        | Some ro ->
          Hashtbl.replace opened r ();
          let m payload = Stack_ev.Bca (r, payload) in
          out :=
            !out
            @ [ Node.Broadcast (m (Evbca.MEcho (Value.negate ro.c)));
                Node.Broadcast (m (Evbca.MEcho2 ro.c));
                Node.Unicast (ro.d, m (Evbca.MEcho3 (Types.Val ro.c)));
                Node.Unicast (ro.o, m (Evbca.MEcho3 (Types.Val ro.c)));
                Node.Unicast (ro.w, m (Evbca.MEcho3 (Types.Val ro.c))) ]
        | None -> ()
      end;
      !out
    end
  in
  let make pid =
    if pid = b_pid then
      (Node.make ~receive:(fun ~src:_ _ -> []) ~terminated:(fun () -> true) ~tick:byz_tick (), [])
    else begin
      let state, init = Stack_ev.create params ~me:pid ~input:inputs.(pid) in
      states.(pid) <- Some state;
      (Stack_ev.node state, List.map (fun m -> Node.Broadcast m) init)
    end
  in
  (* Deliver older rounds and earlier message kinds first: the EV
     optimizations cross round boundaries, so a party's pending late
     round-(r-1) echoes must land before round-r echo3 votes for the
     approval propagation to stay ahead of the decision clauses. *)
  let kind_rank (env : _ Lockstep.envelope) =
    match env.Lockstep.payload with
    | Stack_ev.Bca (r, Evbca.MEcho _) -> (r, 0)
    | Stack_ev.Bca (r, Evbca.MEcho2 _) -> (r, 1)
    | Stack_ev.Bca (r, Evbca.MEcho3 _) -> (r, 2)
    | Stack_ev.Committed _ -> (max_int, 0)
  in
  (* Fairness valve: no deferral outlives this many steps, so the run
     cannot starve even if it drifts off the scripted path. *)
  let first_seen : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let stale ~step (env : _ Lockstep.envelope) =
    match Hashtbl.find_opt first_seen env.Lockstep.eid with
    | None ->
      Hashtbl.replace first_seen env.Lockstep.eid step;
      false
    | Some s0 -> step - s0 > 15
  in
  let order ~step ~dst envs =
    if not (ready ()) then envs
    else
      List.stable_sort (fun a b ->
        let xa, ya = kind_rank a and xb, yb = kind_rank b in
        match Int.compare xa xb with 0 -> Int.compare ya yb | c -> c)
      @@ List.filter
        (fun (env : _ Lockstep.envelope) ->
          stale ~step env
          ||
          let src = env.Lockstep.src in
          match env.Lockstep.payload with
          | Stack_ev.Bca (1, Evbca.MEcho v) when Value.equal v w1 ->
            (* Round 1: keep X's and Y's approvedVals at {b} long enough. *)
            if dst = x && src <> x then echo3_sent_in x 2
            else if dst = y && src = s then echo3_sent_in y 1
            else true
          | Stack_ev.Bca (r, Evbca.MEcho v) when r >= 2 ->
            (match Hashtbl.find_opt roles r with
            | Some (Some ro) when not (Value.equal v ro.c) ->
              (* D's approvedVals stay {c} until its next-round echo3 is
                 out (which is also when W(r+1) = D(r) needs the release
                 for the approval propagation of optimization 1). *)
              if dst = ro.d && src <> ro.d then echo3_sent_in ro.d (r + 1) else true
            | _ -> true)
          | Stack_ev.Bca (r, Evbca.MEcho2 v) when r >= 2 ->
            (match Hashtbl.find_opt roles r with
            | Some (Some ro) when Value.equal v ro.c ->
              (* O must reach |approvedVals| > 1 before its echo2 quorum
                 completes, so it bottoms instead of voting for c. *)
              if dst = ro.o && src = ro.d then approved_gt1 ro.o r else true
            | _ -> true)
          | Stack_ev.Bca (r, Evbca.MEcho3 (Types.Val v)) when r >= 2 && src = b_pid ->
            (match Hashtbl.find_opt roles r with
            | Some (Some ro) when Value.equal v ro.c ->
              (* B's vote lands one step after O's bottom echo3. *)
              echo3_sent_in ro.o r
            | _ -> true)
          | _ -> true)
        envs
  in
  let res = Lockstep.run ~n ~honest ~make ~order ~max_steps:2000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  float_of_int res.Lockstep.depth

let strong_2t1 ~runs ~seed = Mc.summarize ~runs ~seed strong_2t1_once

(* ------------------------------------------------------------------ *)
(* Threshold signatures, EVBCA-TSig (Appendix G.2): Lemma G.25.        *)
(* ------------------------------------------------------------------ *)

module Evt = Bca_core.Evbca_tsig
module Aa_evt = Bca_core.Aa_ev_tsig
module Threshold = Bca_crypto.Threshold

let tsig_once ~seed =
  let cfg = Types.cfg ~n ~t:tf in
  let coin = Coin.create Coin.Strong ~n ~degree:(2 * tf) ~seed in
  let setup, keys = Threshold.setup ~n ~seed:(Int64.add seed 0x7516L) in
  let inputs = [| Value.V0; Value.V0; Value.V1; Value.V1 |] in
  let w1 = inputs.(s) in
  let sent = ref false in
  (* B only helps S certify the minority value so the round-1 echo2 votes
     split 2-1 and everyone decides bottom. *)
  let byz_tick ~step:_ =
    if !sent then []
    else begin
      sent := true;
      let share = Threshold.sign keys.(b_pid) ~tag:(Evt.echo_tag ~round:1 w1) in
      [ Node.Unicast (s, Aa_evt.Bca (1, Evt.MEcho (w1, share))) ]
    end
  in
  let make pid =
    if pid = b_pid then
      (Node.make ~receive:(fun ~src:_ _ -> []) ~terminated:(fun () -> true) ~tick:byz_tick (), [])
    else begin
      let params = { Aa_evt.cfg; coin; setup; key = keys.(pid) } in
      let state, init = Aa_evt.create params ~me:pid ~input:inputs.(pid) in
      (Aa_evt.node state, List.map (fun m -> Node.Broadcast m) init)
    end
  in
  (* S must assemble its minority certificate before it sees the majority
     echo shares, so its single echo2 vote goes to the minority value. *)
  let order ~step:_ ~dst envs =
    if dst <> s then envs
    else begin
      let score (env : _ Lockstep.envelope) =
        match env.Lockstep.payload with
        | Aa_evt.Bca (1, Evt.MEcho (v, _)) -> if Value.equal v w1 then 0 else 1
        | _ -> 0
      in
      List.stable_sort (fun a b -> Int.compare (score a) (score b)) envs
    end
  in
  let res = Lockstep.run ~n ~honest ~make ~order ~max_steps:2000 () in
  assert (res.Lockstep.outcome = `All_terminated);
  float_of_int res.Lockstep.depth

let tsig ~runs ~seed = Mc.summarize ~runs ~seed tsig_once
