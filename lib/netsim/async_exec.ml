type pid = Node.pid

type 'm envelope = { eid : int; src : pid; dst : pid; payload : 'm; depth : int }

type 'm t = {
  n : int;
  nodes : 'm Node.t array;
  alive : bool array;
  pool : 'm envelope Pool.t;
  (* eid -> current pool slot, so delivery by id and post-choice removal are
     O(1) instead of a pool scan.  Built lazily on first use (deliver_eid,
     FIFO or legacy scheduling) and kept in sync from then on; the pure
     index-picking schedulers never pay for its maintenance. *)
  mutable slot_of_eid : (int, int) Hashtbl.t option;
  (* min-eid heap, built lazily on the first FIFO pick and maintained on
     every enqueue from then on; entries for already-removed eids are left
     in place and skipped on pop (lazy deletion) *)
  mutable fifo_heap : Bca_util.Min_heap.t option;
  depths : int array;
  mutable next_eid : int;
  mutable delivered : int;
  mutable observer : ('m envelope -> unit) option;
  tracer : Bca_obs.Trace.t;
  (* cached [Trace.enabled tracer]: instrumentation sites test one bool and
     skip event construction entirely when tracing is off *)
  tracing : bool;
}

let add_env t env =
  if t.tracing then
    Bca_obs.Trace.emit t.tracer
      (Bca_obs.Event.Send { eid = env.eid; src = env.src; dst = env.dst; depth = env.depth });
  Pool.add t.pool env;
  (match t.slot_of_eid with
  | Some ix -> Hashtbl.replace ix env.eid (Pool.length t.pool - 1)
  | None -> ());
  match t.fifo_heap with
  | Some h -> Bca_util.Min_heap.push h env.eid
  | None -> ()

let ensure_slot_index t =
  match t.slot_of_eid with
  | Some ix -> ix
  | None ->
    let ix = Hashtbl.create (max 64 (2 * Pool.length t.pool)) in
    Pool.iteri (fun i env -> Hashtbl.replace ix env.eid i) t.pool;
    t.slot_of_eid <- Some ix;
    ix

(* O(1): swap-remove slot [i] and re-index the envelope that filled it. *)
let remove_slot t i =
  let env = Pool.swap_remove t.pool i in
  (match t.slot_of_eid with
  | Some ix ->
    Hashtbl.remove ix env.eid;
    if i < Pool.length t.pool then Hashtbl.replace ix (Pool.get t.pool i).eid i
  | None -> ());
  env

let enqueue t ~src emits =
  (* injected traffic may carry an out-of-band source id *)
  let src_depth = if src >= 0 && src < t.n then t.depths.(src) else 0 in
  let depth = src_depth + 1 in
  List.iter
    (fun emit ->
      match emit with
      | Node.Broadcast m ->
        for dst = 0 to t.n - 1 do
          add_env t { eid = t.next_eid; src; dst; payload = m; depth };
          t.next_eid <- t.next_eid + 1
        done
      | Node.Unicast (dst, m) ->
        add_env t { eid = t.next_eid; src; dst; payload = m; depth };
        t.next_eid <- t.next_eid + 1)
    emits

let create_traced ~tracer ~n ~make =
  let nodes = Array.make n Node.silent in
  let t =
    { n;
      nodes;
      alive = Array.make n true;
      pool = Pool.create ();
      slot_of_eid = None;
      fifo_heap = None;
      depths = Array.make n 0;
      next_eid = 0;
      delivered = 0;
      observer = None;
      tracer;
      tracing = Bca_obs.Trace.enabled tracer }
  in
  let initial = Array.init n (fun pid -> make pid) in
  Array.iteri (fun pid (node, _) -> t.nodes.(pid) <- node) initial;
  Array.iteri (fun pid (_, emits) -> enqueue t ~src:pid emits) initial;
  t

let create ~n ~make = create_traced ~tracer:Bca_obs.Trace.null ~n ~make

let n t = t.n

let inflight t = Pool.to_list t.pool

let inflight_count t = Pool.length t.pool

let pool_size t = Pool.length t.pool

let pool_get t i = Pool.get t.pool i

let deliveries t = t.delivered

let crash t pid =
  if t.tracing then Bca_obs.Trace.emit t.tracer (Bca_obs.Event.Crash { pid });
  t.alive.(pid) <- false

let crashed t pid = not t.alive.(pid)

let revive t pid = t.alive.(pid) <- true

let drop_outgoing t ~src ~keep =
  (* when tracing, record the victims before the destructive filter *)
  if t.tracing then
    Pool.iter
      (fun env ->
        if env.src = src && not (keep env) then
          Bca_obs.Trace.emit t.tracer
            (Bca_obs.Event.Drop { eid = env.eid; src = env.src; dst = env.dst }))
      t.pool;
  Pool.filter_in_place t.pool (fun env -> env.src <> src || keep env);
  (* slots shifted arbitrarily: rebuild the eid index if it exists.  The
     FIFO heap keeps its stale entries; lazy deletion skips them. *)
  match t.slot_of_eid with
  | None -> ()
  | Some ix ->
    Hashtbl.reset ix;
    Pool.iteri (fun i env -> Hashtbl.replace ix env.eid i) t.pool

let inject t ~src emits = enqueue t ~src emits

(* ---- fault primitives (chaos layer) ------------------------------- *)
(* These are raw adversary powers over the in-flight pool.  They do not
   enforce any fault-model policy themselves: the chaos layer
   (Bca_adversary.Chaos) gates them so that honest links only suffer
   bounded unfairness.  All of them locate envelopes by id through the
   slot index, so they are O(1) and safe to interleave with any
   scheduler (the FIFO heap tolerates both removals, via lazy deletion,
   and in-place rewrites, which keep the eid). *)

let drop_eid t eid =
  match Hashtbl.find_opt (ensure_slot_index t) eid with
  | None -> None
  | Some i ->
    let env = remove_slot t i in
    if t.tracing then
      Bca_obs.Trace.emit t.tracer
        (Bca_obs.Event.Drop { eid = env.eid; src = env.src; dst = env.dst });
    Some env

let duplicate_eid t eid =
  match Hashtbl.find_opt (ensure_slot_index t) eid with
  | None -> false
  | Some i ->
    let env = Pool.get t.pool i in
    if t.tracing then
      Bca_obs.Trace.emit t.tracer (Bca_obs.Event.Duplicate { eid; copy = t.next_eid });
    add_env t { env with eid = t.next_eid };
    t.next_eid <- t.next_eid + 1;
    true

let redirect_eid t eid ~dst =
  if dst < 0 || dst >= t.n then invalid_arg "Async_exec.redirect_eid: dst out of range";
  match Hashtbl.find_opt (ensure_slot_index t) eid with
  | None -> false
  | Some i ->
    if t.tracing then Bca_obs.Trace.emit t.tracer (Bca_obs.Event.Redirect { eid; dst });
    Pool.set t.pool i { (Pool.get t.pool i) with dst };
    true

let swap_payloads t eid1 eid2 =
  let ix = ensure_slot_index t in
  match (Hashtbl.find_opt ix eid1, Hashtbl.find_opt ix eid2) with
  | Some i, Some j when eid1 <> eid2 ->
    if t.tracing then Bca_obs.Trace.emit t.tracer (Bca_obs.Event.Swap { eid1; eid2 });
    let a = Pool.get t.pool i and b = Pool.get t.pool j in
    Pool.set t.pool i { a with payload = b.payload };
    Pool.set t.pool j { b with payload = a.payload };
    true
  | _ -> false

let deliver_env t env =
  t.delivered <- t.delivered + 1;
  if t.tracing then
    Bca_obs.Trace.emit t.tracer
      (Bca_obs.Event.Deliver { eid = env.eid; src = env.src; dst = env.dst; depth = env.depth });
  (match t.observer with Some f -> f env | None -> ());
  if t.alive.(env.dst) then begin
    t.depths.(env.dst) <- max t.depths.(env.dst) env.depth;
    let emits = t.nodes.(env.dst).Node.receive ~src:env.src env.payload in
    if t.alive.(env.dst) then enqueue t ~src:env.dst emits
  end

let deliver_eid t eid =
  match Hashtbl.find_opt (ensure_slot_index t) eid with
  | None -> false
  | Some i ->
    let env = remove_slot t i in
    deliver_env t env;
    true

(* ---- replay -------------------------------------------------------- *)
(* Nodes are deterministic state machines and eids are assigned from a
   monotone counter, so a cluster rebuilt exactly as the original (same
   construction, same injections) plus the original run's action log is a
   complete description of the execution: re-applying the actions in order
   reproduces it bit for bit.  Non-action events (sends, protocol
   milestones, violations) are consequences and re-emerge on their own -
   which is what lets a replayed trace be compared to the original for
   identity. *)

let apply t (ev : Bca_obs.Event.t) =
  match ev with
  | Bca_obs.Event.Deliver { eid; _ } -> deliver_eid t eid
  | Bca_obs.Event.Drop { eid; _ } -> drop_eid t eid <> None
  | Bca_obs.Event.Duplicate { eid; copy } ->
    (* the copy's eid comes from [next_eid]; a mismatch means the replayed
       cluster has diverged from the one that produced the log *)
    t.next_eid = copy && duplicate_eid t eid
  | Bca_obs.Event.Redirect { eid; dst } ->
    dst >= 0 && dst < t.n && redirect_eid t eid ~dst
  | Bca_obs.Event.Swap { eid1; eid2 } -> swap_payloads t eid1 eid2
  | Bca_obs.Event.Crash { pid } ->
    pid >= 0 && pid < t.n
    && begin
         crash t pid;
         true
       end
  | Bca_obs.Event.Send _ | Bca_obs.Event.Round_enter _ | Bca_obs.Event.Quorum _
  | Bca_obs.Event.Coin_reveal _ | Bca_obs.Event.Commit _ | Bca_obs.Event.Violation _
  | Bca_obs.Event.Transport _ | Bca_obs.Event.Slot_commit _ | Bca_obs.Event.Buffer_drop _ ->
    (* not an action: nothing to apply *)
    true

let replay t events =
  let n = Array.length events in
  let rec go i =
    if i >= n then Ok ()
    else
      let { Bca_obs.Event.ev; _ } = events.(i) in
      if not (Bca_obs.Event.is_action ev) then go (i + 1)
      else if apply t ev then go (i + 1)
      else
        Error
          (Format.asprintf "replay diverged at event %d: %a is not applicable" i
             Bca_obs.Event.pp ev)
  in
  go 0

(* [sk_mask] caches [slow] as a pid-indexed bitmap, sized on first pick from
   the execution's [n] - the per-slot membership test is then one array read
   instead of an O(|slow|) list scan. *)
type skewed = {
  sk_rng : Bca_util.Rng.t;
  sk_slow : pid list;
  sk_bias : int;
  mutable sk_mask : bool array;
}

type 'm scheduler =
  | Random of Bca_util.Rng.t
  | Fifo
  | Skewed of skewed
  | Indexed of (delivered:int -> 'm t -> int option)

let random_scheduler rng = Random rng

let skewed_scheduler rng ~slow ~bias =
  Skewed { sk_rng = rng; sk_slow = slow; sk_bias = bias; sk_mask = [||] }

let fifo_scheduler = Fifo

let indexed_scheduler f = Indexed f

let ensure_heap t =
  match t.fifo_heap with
  | Some h -> h
  | None ->
    let h = Bca_util.Min_heap.create ~capacity:(max 16 (Pool.length t.pool)) () in
    Pool.iter (fun env -> Bca_util.Min_heap.push h env.eid) t.pool;
    t.fifo_heap <- Some h;
    h

(* Pop heap minima until one is still in flight.  Every in-flight eid is in
   the heap (seeded from the pool at heap creation, pushed on every enqueue
   after), so this terminates with an index whenever the pool is non-empty. *)
let rec fifo_pick t ix h =
  match Bca_util.Min_heap.pop_min h with
  | None -> None
  | Some eid ->
    (match Hashtbl.find_opt ix eid with
    | Some i -> Some i
    | None -> fifo_pick t ix h)

(* The skewed pick makes no steady-state allocations: one counting pass over
   the backing array, then a positional pass to the chosen fast envelope.
   Slowness is a bitmap lookup (O(1) per slot, O(len) per pick); the RNG draw
   sequence matches the historical list-based implementation exactly
   (optionally [int bias], then one [int] over the candidate count). *)
let skewed_mask t sk =
  if Array.length sk.sk_mask < t.n then begin
    let mask = Array.make t.n false in
    List.iter (fun pid -> if pid >= 0 && pid < t.n then mask.(pid) <- true) sk.sk_slow;
    sk.sk_mask <- mask
  end;
  sk.sk_mask

let skewed_pick t sk =
  let rng = sk.sk_rng and bias = sk.sk_bias in
  let mask = skewed_mask t sk in
  let len = Pool.length t.pool in
  let is_fast i = not mask.((Pool.get t.pool i).dst) in
  let nfast = ref 0 in
  for i = 0 to len - 1 do
    if is_fast i then incr nfast
  done;
  let nfast = !nfast in
  if nfast > 0 && (nfast = len || Bca_util.Rng.int rng bias <> 0) then begin
    let k = Bca_util.Rng.int rng nfast in
    let rec nth_fast i remaining =
      if is_fast i then if remaining = 0 then i else nth_fast (i + 1) (remaining - 1)
      else nth_fast (i + 1) remaining
    in
    Some (nth_fast 0 k)
  end
  else Some (Bca_util.Rng.int rng len)

(* Choose a pool slot.  Callers guarantee the pool is non-empty. *)
let choose_slot t = function
  | Random rng -> Some (Bca_util.Rng.int rng (Pool.length t.pool))
  | Fifo ->
    let ix = ensure_slot_index t in
    fifo_pick t ix (ensure_heap t)
  | Skewed sk -> skewed_pick t sk
  | Indexed f ->
    (match f ~delivered:t.delivered t with
    | None -> None
    | Some i ->
      if i < 0 || i >= Pool.length t.pool then
        invalid_arg "Async_exec.step: indexed scheduler chose an out-of-range slot";
      Some i)

let step t scheduler =
  if Pool.is_empty t.pool then `Empty
  else
    match choose_slot t scheduler with
    | None -> `Stopped
    | Some i ->
      let env = remove_slot t i in
      deliver_env t env;
      `Delivered env

let all_terminated t =
  let rec loop pid =
    if pid >= t.n then true
    else if (not t.alive.(pid)) || t.nodes.(pid).Node.terminated () then loop (pid + 1)
    else false
  in
  loop 0

type outcome = [ `All_terminated | `Quiescent | `Limit | `Stopped ]

let run ?(max_deliveries = 1_000_000) ?(stop_when = fun _ -> false) t scheduler =
  let rec loop () =
    if all_terminated t then `All_terminated
    else if stop_when t then `Stopped
    else if t.delivered >= max_deliveries then `Limit
    else
      match step t scheduler with
      | `Empty -> `Quiescent
      | `Stopped -> `Stopped
      | `Delivered _ -> loop ()
  in
  loop ()

let node_of t pid = t.nodes.(pid)

let set_observer t f = t.observer <- Some f

let depth_of t pid = t.depths.(pid)

let max_depth t =
  Array.fold_left max 0 t.depths
