module Value = Bca_util.Value
module Quorum = Bca_util.Quorum

type msg = MEcho of Value.t | MEcho2 of Value.t | MEcho3 of Types.cvalue

let pp_msg ppf = function
  | MEcho v -> Format.fprintf ppf "echo(%a)" Value.pp v
  | MEcho2 v -> Format.fprintf ppf "echo2(%a)" Value.pp v
  | MEcho3 cv -> Format.fprintf ppf "echo3(%a)" Types.pp_cvalue cv

type start_ctx = {
  auto_approve : Value.t option;
  skip_echo : bool;
  early_echo3 : Value.t option;
}

let fresh = { auto_approve = None; skip_echo = false; early_echo3 = None }

type t = {
  cfg : Types.cfg;
  me : Types.pid;
  echoes : Value.t Quorum.t;
  echo2s : Value.t Quorum.t;
  echo3s : Types.cvalue Quorum.t;
  mutable my_echoes : Value.t list;
  mutable approved : Value.t list;
  mutable sent_echo2 : bool;
  mutable echo3_sent : Types.cvalue option;
  mutable decision : Types.cvalue option;
}

let create cfg ~me =
  Types.check_byz_resilience cfg;
  { cfg;
    me;
    echoes = Quorum.create ();
    echo2s = Quorum.create ();
    echo3s = Quorum.create ();
    my_echoes = [];
    approved = [];
    sent_echo2 = false;
    echo3_sent = None;
    decision = None }

(* Approve [v] and cast the single echo2 vote if still unused
   (lines 5-7, extended to automatic approvals by optimization 2). *)
let approve t v out =
  if not (List.mem v t.approved) then begin
    t.approved <- v :: t.approved;
    if not t.sent_echo2 then begin
      t.sent_echo2 <- true;
      out := !out @ [ MEcho2 v ]
    end
  end

(* Clause scan identical to Algorithm 4; approvals may now also come from
   the start context. *)
let progress t =
  let q = Types.quorum t.cfg in
  let out = ref [] in
  List.iter
    (fun v ->
      if Quorum.count t.echoes v >= Quorum.plurality ~t:t.cfg.Types.t && not (List.mem v t.my_echoes)
      then begin
        t.my_echoes <- v :: t.my_echoes;
        out := !out @ [ MEcho v ]
      end)
    Value.both;
  List.iter (fun v -> if Quorum.count t.echoes v >= q then approve t v out) Value.both;
  if t.echo3_sent = None then begin
    if List.length t.approved > 1 then begin
      t.echo3_sent <- Some Types.Bot;
      out := !out @ [ MEcho3 Types.Bot ]
    end
    else
      List.iter
        (fun v ->
          if t.echo3_sent = None && Quorum.count t.echo2s v >= q then begin
            t.echo3_sent <- Some (Types.Val v);
            out := !out @ [ MEcho3 (Types.Val v) ]
          end)
        Value.both
  end;
  if t.decision = None then begin
    if List.length t.approved > 1 && Quorum.senders t.echo3s >= q then
      t.decision <- Some Types.Bot
    else
      List.iter
        (fun v ->
          if t.decision = None && Quorum.count t.echo3s (Types.Val v) >= q then
            t.decision <- Some (Types.Val v))
        Value.both
  end;
  !out

let start t ~input ~ctx =
  let out = ref [] in
  (match ctx.early_echo3 with
  | Some v ->
    (* Optimization 4: the committed value is already common knowledge
       enough to vote and aggregate in one step. *)
    if not (List.mem v t.approved) then t.approved <- v :: t.approved;
    if not t.sent_echo2 then begin
      t.sent_echo2 <- true;
      out := !out @ [ MEcho2 v ]
    end;
    if t.echo3_sent = None then begin
      t.echo3_sent <- Some (Types.Val v);
      out := !out @ [ MEcho3 (Types.Val v) ]
    end
  | None ->
    (match ctx.auto_approve with Some a -> approve t a out | None -> ());
    if (not ctx.skip_echo) && not (List.mem input t.my_echoes) then begin
      t.my_echoes <- input :: t.my_echoes;
      out := !out @ [ MEcho input ]
    end);
  !out @ progress t

let handle t ~from msg =
  (match msg with
  | MEcho v -> ignore (Quorum.add_value t.echoes ~pid:from v : bool)
  | MEcho2 v -> ignore (Quorum.add_first t.echo2s ~pid:from v : bool)
  | MEcho3 cv -> ignore (Quorum.add_first t.echo3s ~pid:from cv : bool));
  progress t

let decision t = t.decision

let phase t =
  if t.decision <> None then "decide"
  else if t.echo3_sent <> None then "echo3"
  else if t.sent_echo2 then "echo2"
  else if t.my_echoes <> [] then "echo"
  else "init"

let approved t = t.approved

let echo3_sent t = t.echo3_sent

let external_approve t v =
  let out = ref [] in
  approve t v out;
  !out @ progress t
