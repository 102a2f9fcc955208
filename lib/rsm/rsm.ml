module Types = Bca_core.Types
module Trace = Bca_obs.Trace
module Event = Bca_obs.Event

type tx = string

type msg = Epoch of int * Acs.msg

let pp_msg ppf (Epoch (e, m)) = Format.fprintf ppf "e%d:%a" e Acs.pp_msg m

type batch_policy = { max_txs : int; max_bytes : int }

let default_batch = { max_txs = 64; max_bytes = 64 * 1024 }

type params = {
  cfg : Types.cfg;
  coin_seed : int64;
  epochs : int;
  window : int;
  batch : batch_policy;
  buffer_slack : int;
  buffer_cap : int;
}

let mk_params ~cfg ~coin_seed ~epochs ?(window = 4) ?(batch = default_batch)
    ?buffer_slack ?(buffer_cap = 4096) () =
  let buffer_slack = match buffer_slack with Some s -> s | None -> window in
  { cfg; coin_seed; epochs; window; batch; buffer_slack; buffer_cap }

(* Batches travel inside ACS proposals as netstring concatenations
   ("<len>:<bytes>..."), so transactions are arbitrary bytes - no reserved
   separator.  Decoding is total: a malformed tail (only a Byzantine
   proposer produces one) yields the well-formed prefix, identically at
   every honest replica. *)
let encode_batch txs =
  let buf = Buffer.create 256 in
  List.iter
    (fun tx ->
      Buffer.add_string buf (string_of_int (String.length tx));
      Buffer.add_char buf ':';
      Buffer.add_string buf tx)
    txs;
  Buffer.contents buf

let decode_batch s =
  let len = String.length s in
  let rec go i acc =
    if i >= len then List.rev acc
    else
      match String.index_from_opt s i ':' with
      | None -> List.rev acc
      | Some j -> (
        match int_of_string_opt (String.sub s i (j - i)) with
        | Some n when n >= 0 && j + 1 + n <= len ->
          go (j + 1 + n) (String.sub s (j + 1) n :: acc)
        | _ -> List.rev acc)
  in
  go 0 []

type tx_state = Submitted | Committed

type inst = {
  acs : Acs.t;
  mutable proposed : tx list;  (* our batch, until the epoch commits *)
}

type t = {
  p : params;
  me : Types.pid;
  instances : (int, inst) Hashtbl.t;  (* epoch -> in-flight / finished ACS *)
  buffered : (int, (Types.pid * Acs.msg) list * int) Hashtbl.t;
      (* ahead-of-window epochs: reverse-order messages plus their count *)
  mutable next_epoch : int;  (* epochs < next_epoch have an instance *)
  mutable commit_next : int;  (* next epoch to commit, in order *)
  mutable pend_front : tx list;  (* submission queue, FIFO order... *)
  mutable pend_back : tx list;  (* ...plus its reversed tail *)
  mutable pending_n : int;
  txs : (tx, tx_state) Hashtbl.t;
      (* one entry per tx submitted here or committed: a commit overwrites
         the submission, so a committed tx costs one entry *)
  mutable log : tx list;  (* committed, reverse order *)
  mutable terminated : bool;
  on_commit : (epoch:int -> tx list -> unit) option;
  tracer : Trace.t;
}

let wrap e msgs = List.map (fun m -> Epoch (e, m)) msgs

let acs_params t e =
  { Acs.cfg = t.p.cfg; coin_seed = Int64.add t.p.coin_seed (Int64.of_int (101 * e)) }

(* Cut the next proposal off the submission queue: up to [max_txs]
   transactions and, past the first, at most [max_bytes] payload bytes. *)
let cut_batch t =
  let rec go acc n bytes =
    if n >= t.p.batch.max_txs then List.rev acc
    else begin
      if t.pend_front = [] then begin
        t.pend_front <- List.rev t.pend_back;
        t.pend_back <- []
      end;
      match t.pend_front with
      | [] -> List.rev acc
      | tx :: tl ->
        let bytes' = bytes + String.length tx in
        if n > 0 && bytes' > t.p.batch.max_bytes then List.rev acc
        else begin
          t.pend_front <- tl;
          t.pending_n <- t.pending_n - 1;
          go (tx :: acc) (n + 1) bytes'
        end
    end
  in
  go [] 0 0

let start_epoch t e =
  let batch = cut_batch t in
  let acs, init = Acs.create (acs_params t e) ~me:t.me ~proposal:(encode_batch batch) in
  Hashtbl.replace t.instances e { acs; proposed = batch };
  t.next_epoch <- e + 1;
  let replayed =
    match Hashtbl.find_opt t.buffered e with
    | Some (msgs, _) ->
      Hashtbl.remove t.buffered e;
      List.concat_map (fun (from, m) -> Acs.handle acs ~from m) (List.rev msgs)
    | None -> []
  in
  wrap e (init @ replayed)

(* Open every epoch the sliding window admits: [commit_next + window)
   bounds the in-flight slots, [p.epochs] the log's length. *)
let rec try_open t =
  if
    (not t.terminated)
    && t.next_epoch < t.p.epochs
    && t.next_epoch < t.commit_next + t.p.window
  then begin
    (* bind first: [@] evaluates right to left, and the recursive call
       must see the advanced [next_epoch] *)
    let opened = start_epoch t t.next_epoch in
    opened @ try_open t
  end
  else []

let committed t tx =
  match Hashtbl.find_opt t.txs tx with Some Committed -> true | Some Submitted | None -> false

let commit t inst slots =
  let e = t.commit_next in
  let fresh = ref [] in
  List.iter
    (fun (_, payload) ->
      List.iter
        (fun tx ->
          if not (committed t tx) then begin
            Hashtbl.replace t.txs tx Committed;
            t.log <- tx :: t.log;
            fresh := tx :: !fresh
          end)
        (decode_batch payload))
    slots;
  let fresh = List.rev !fresh in
  (* A rejected proposal is re-queued at the head, minus anything that
     another replica's accepted batch already carried in. *)
  if not (List.exists (fun (j, _) -> j = t.me) slots) then begin
    let rejected =
      List.filter (fun tx -> not (committed t tx)) inst.proposed
    in
    t.pend_front <- rejected @ t.pend_front;
    t.pending_n <- t.pending_n + List.length rejected
  end;
  (* a committed epoch keeps only its ACS, which retires itself *)
  inst.proposed <- [];
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      (Event.Slot_commit { pid = t.me; slot = e; txs = List.length fresh });
  (match t.on_commit with Some f -> f ~epoch:e fresh | None -> ());
  t.commit_next <- e + 1;
  if t.commit_next >= t.p.epochs then t.terminated <- true

(* Commit finished epochs in log order and slide the window forward. *)
let rec advance t =
  if t.terminated then []
  else begin
    let opened = try_open t in
    match Hashtbl.find_opt t.instances t.commit_next with
    | None -> opened
    | Some inst -> (
      match Acs.output inst.acs with
      | None -> opened
      | Some slots ->
        commit t inst slots;
        opened @ advance t)
  end

let create ?on_commit ?(tracer = Trace.null) p ~me =
  Types.check_byz_resilience p.cfg;
  if p.epochs <= 0 then invalid_arg "Rsm.create: epochs must be positive";
  if p.window <= 0 then invalid_arg "Rsm.create: window must be positive";
  if p.batch.max_txs <= 0 || p.batch.max_bytes <= 0 then
    invalid_arg "Rsm.create: batch bounds must be positive";
  if p.buffer_slack < 0 || p.buffer_cap <= 0 then
    invalid_arg "Rsm.create: buffer bounds out of range";
  let t =
    { p;
      me;
      instances = Hashtbl.create 16;
      buffered = Hashtbl.create 8;
      next_epoch = 0;
      commit_next = 0;
      pend_front = [];
      pend_back = [];
      pending_n = 0;
      txs = Hashtbl.create 64;
      log = [];
      terminated = false;
      on_commit;
      tracer }
  in
  let init = try_open t in
  (t, init)

let submit t tx =
  if Hashtbl.mem t.txs tx then false
  else begin
    Hashtbl.replace t.txs tx Submitted;
    t.pend_back <- tx :: t.pend_back;
    t.pending_n <- t.pending_n + 1;
    true
  end

let shed t e =
  if Trace.enabled t.tracer then
    Trace.emit t.tracer (Event.Buffer_drop { pid = t.me; epoch = e })

(* Bounded ahead-of-window buffering: a message for an epoch beyond
   [commit_next + window + buffer_slack], or for an epoch whose buffer
   already holds [buffer_cap] messages, is shed (with a [Buffer_drop]
   event) rather than held - a laggard catches up from the senders'
   retransmission-free protocol state, not from our memory. *)
let buffer_future t ~from e m =
  if e >= t.commit_next + t.p.window + t.p.buffer_slack then shed t e
  else begin
    let prev, count =
      match Hashtbl.find_opt t.buffered e with Some x -> x | None -> ([], 0)
    in
    if count >= t.p.buffer_cap then shed t e
    else Hashtbl.replace t.buffered e ((from, m) :: prev, count + 1)
  end

(* A finished log still answers payload pulls for its epochs: a lagging
   replica may need a payload only finished replicas hold. *)
let handle t ~from msg =
  let (Epoch (e, m)) = msg in
  let inst = Hashtbl.find_opt t.instances e in
  if t.terminated then
    match (inst, m) with
    | Some inst, Acs.Rbc (_, Bca_baselines.Bracha.Fetch _) -> wrap e (Acs.handle inst.acs ~from m)
    | Some _, (Acs.Rbc _ | Acs.Aba _) | None, _ -> []
  else begin
    let out =
      match inst with
      | Some inst -> wrap e (Acs.handle inst.acs ~from m)
      | None ->
        if e >= t.next_epoch && e < t.p.epochs then buffer_future t ~from e m;
        []
    in
    out @ advance t
  end

let log t = List.rev t.log

let committed_epochs t = t.commit_next

let in_flight t = t.next_epoch - t.commit_next

let pending_txs t = t.pending_n

let buffered_msgs t =
  Bca_util.Det.fold_commutative (fun _ (_, count) acc -> acc + count) t.buffered 0

let terminated t = t.terminated

let node t =
  Bca_netsim.Node.make
    ~receive:(fun ~src m ->
      List.map (fun m -> Bca_netsim.Node.Broadcast m) (handle t ~from:src m))
    ~terminated:(fun () -> t.terminated)
    ()
