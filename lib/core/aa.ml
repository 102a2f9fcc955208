module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Coin = Bca_coin.Coin

type outcome = Commit of Value.t | Adopt of Value.t

module type ROUND = sig
  type params
  type msg

  val pp_msg : Format.formatter -> msg -> unit

  type t
  type decision

  val create : params -> me:Types.pid -> t
  val start : t -> input:Value.t -> msg list
  val start_next : prev:t -> decision -> coin:Value.t -> t -> input:Value.t -> msg list
  val handle : t -> from:Types.pid -> msg -> msg list
  val decision : t -> decision option
  val phase : t -> string
  val outcome : decision -> coin:Value.t -> outcome
  val catch_up : (t -> coin:Value.t -> next:t -> msg list) option
end

module Strong (B : Bca_intf.BCA) = struct
  include B

  type decision = Types.cvalue

  let start_next ~prev:_ _ ~coin:_ next ~input = B.start next ~input

  let outcome d ~coin =
    match d with
    | Types.Val v when Value.equal v coin -> Commit v
    | Types.Val v -> Adopt v
    | Types.Bot -> Adopt coin

  let catch_up = None
end

module Graded (G : Bca_intf.GBCA) = struct
  include G

  type decision = Types.gdecision

  let start_next ~prev:_ _ ~coin:_ next ~input = G.start next ~input

  let outcome d ~coin =
    match d with
    | Types.G2 v -> Commit v
    | Types.G1 v -> Adopt v
    | Types.G0 -> Adopt coin

  let catch_up = None
end

module Ev_fresh = Strong (struct
  include Evbca_byz

  type params = Types.cfg

  let start t ~input = Evbca_byz.start t ~input ~ctx:Evbca_byz.fresh

  let max_broadcast_steps = 4
end)

module Ev = struct
  include Ev_fresh

  (* The start context for the next round, from this round's outcome
     (optimizations 1, 3, 4 of Appendix G.1). *)
  let start_next ~prev decision ~coin next ~input =
    let ctx =
      match decision with
      | Types.Val v when Value.equal v coin ->
        { Evbca_byz.auto_approve = None; skip_echo = false; early_echo3 = Some v }
      | Types.Val _ ->
        let auto = if List.mem coin (Evbca_byz.approved prev) then Some coin else None in
        { Evbca_byz.auto_approve = auto; skip_echo = false; early_echo3 = None }
      | Types.Bot ->
        (* A bottom decision requires both values approved, so the coin
           value is approved and optimization 3 applies. *)
        { Evbca_byz.auto_approve = Some coin; skip_echo = true; early_echo3 = None }
    in
    Evbca_byz.start next ~input ~ctx

  (* Optimization 1 as a standing rule: a late approval of a round's coin
     value propagates into the following round. *)
  let catch_up =
    Some
      (fun inst ~coin ~next ->
        if List.mem coin (Evbca_byz.approved inst) && not (List.mem coin (Evbca_byz.approved next))
        then Evbca_byz.external_approve next coin
        else [])
end

module type S = sig
  type inst_params
  type inst_msg
  type inst
  type msg = Bca of int * inst_msg | Committed of Value.t

  val pp_msg : Format.formatter -> msg -> unit

  type params = {
    cfg : Types.cfg;
    mode : [ `Crash | `Byz ];
    coin : Coin.t;
    bca_params : round:int -> inst_params;
  }

  type t

  val create : params -> me:Types.pid -> input:Value.t -> t * msg list
  val handle : t -> from:Types.pid -> msg -> msg list
  val committed : t -> Value.t option
  val terminated : t -> bool
  val current_round : t -> int
  val est : t -> Value.t
  val commit_round : t -> int option
  val node : t -> msg Bca_netsim.Node.t
  val instance : t -> round:int -> inst option
  val current_phase : t -> string
end

module Make (R : ROUND) = struct
  type inst_params = R.params
  type inst_msg = R.msg
  type inst = R.t
  type msg = Bca of int * R.msg | Committed of Value.t

  let pp_msg ppf = function
    | Bca (r, m) -> Format.fprintf ppf "r%d:%a" r R.pp_msg m
    | Committed v -> Format.fprintf ppf "committed(%a)" Value.pp v

  type params = {
    cfg : Types.cfg;
    mode : [ `Crash | `Byz ];
    coin : Coin.t;
    bca_params : round:int -> R.params;
  }

  type t = {
    p : params;
    me : Types.pid;
    instances : (int, R.t) Hashtbl.t;
    mutable round : int;
    mutable est : Value.t;
    mutable committed : Value.t option;
    mutable commit_round : int option;
    mutable sent_committed : bool;
    mutable terminated : bool;
    committed_msgs : Value.t Quorum.t;
  }

  let instance_for t round =
    match Hashtbl.find_opt t.instances round with
    | Some inst -> inst
    | None ->
      let inst = R.create (t.p.bca_params ~round) ~me:t.me in
      Hashtbl.replace t.instances round inst;
      inst

  let wrap round msgs = List.map (fun m -> Bca (round, m)) msgs

  (* Commit [v]: record it and emit the termination-layer broadcast.
     Termination happens only upon *receiving* committed messages (the
     party's own broadcast loops back through the network), which is what
     makes the termination broadcast cost one communication step - the
     "+1" in every broadcast count of the paper. *)
  let commit t v =
    if t.committed = None then begin
      t.committed <- Some v;
      t.commit_round <- Some t.round
    end;
    if t.sent_committed then []
    else begin
      t.sent_committed <- true;
      [ Committed v ]
    end

  (* The loop body: consume the current round's decision, flip the round's
     coin, update the estimate, and start the next round.  The next round's
     instance may already hold a decision (its messages arrived early), so
     iterate. *)
  let rec try_advance t =
    if t.terminated then []
    else
      let inst = instance_for t t.round in
      match R.decision inst with
      | None -> []
      | Some d ->
        let coin = Coin.access t.p.coin ~round:t.round ~pid:t.me in
        let commit_out =
          match R.outcome d ~coin with
          | Commit v ->
            t.est <- v;
            commit t v
          | Adopt v ->
            t.est <- v;
            []
        in
        t.round <- t.round + 1;
        let next = instance_for t t.round in
        let starts = R.start_next ~prev:inst d ~coin next ~input:t.est in
        commit_out @ wrap t.round starts @ try_advance t

  let create p ~me ~input =
    let t =
      { p;
        me;
        instances = Hashtbl.create 8;
        round = 1;
        est = input;
        committed = None;
        commit_round = None;
        sent_committed = false;
        terminated = false;
        committed_msgs = Quorum.create () }
    in
    let inst = instance_for t 1 in
    let out = wrap 1 (R.start inst ~input) in
    (t, out)

  let handle_committed t ~from v =
    ignore (Quorum.add_first t.committed_msgs ~pid:from v : bool);
    match t.p.mode with
    | `Crash ->
      (* One committed message suffices: commit, rebroadcast, terminate. *)
      let out = commit t v in
      t.terminated <- true;
      out
    | `Byz ->
      let tt = t.p.cfg.Types.t in
      let out = ref [] in
      List.iter
        (fun v' ->
          let c = Quorum.count t.committed_msgs v' in
          if c >= Quorum.plurality ~t:tt && t.committed = None then out := commit t v';
          if c >= Quorum.supermajority ~t:tt then t.terminated <- true)
        Value.both;
      !out

  (* The round rule's standing catch-up, over every finished round. *)
  let catch_up t rule =
    let out = ref [] in
    for r = 1 to t.round - 1 do
      let inst = instance_for t r in
      let coin = Coin.access t.p.coin ~round:r ~pid:t.me in
      match rule inst ~coin ~next:(instance_for t (r + 1)) with
      | [] -> ()
      | msgs -> out := !out @ wrap (r + 1) msgs
    done;
    !out

  let handle t ~from msg =
    if t.terminated then []
    else
      match msg with
      | Committed v -> handle_committed t ~from v
      | Bca (r, m) -> (
        let outs = wrap r (R.handle (instance_for t r) ~from m) in
        let outs = match R.catch_up with None -> outs | Some rule -> outs @ catch_up t rule in
        match try_advance t with [] -> outs | advanced -> outs @ advanced)

  let committed t = t.committed

  let terminated t = t.terminated

  let current_round t = t.round

  let est t = t.est

  let commit_round t = t.commit_round

  let node t =
    Bca_netsim.Node.make
      ~receive:(fun ~src m -> List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
      ~terminated:(fun () -> t.terminated)
      ()

  let instance t ~round = Hashtbl.find_opt t.instances round

  let current_phase t =
    match Hashtbl.find_opt t.instances t.round with
    | Some inst -> R.phase inst
    | None -> "init"
end
