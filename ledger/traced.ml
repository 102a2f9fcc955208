(* Bench-side drivers for the traced runs.

   They reproduce the product's loops from public functions only - the
   in-process multi-instance ABA cluster of [Cluster.run_inproc_cluster]
   (mnode_step), the replicated-log load generator of
   [Cluster.run_rsm_loadgen] (rnode_step) and the simulator loop of
   [Aba.run] - with every call into a layer wrapped in a span.  Nested
   layers are reached by wrapping the record closures the outer layer
   calls: the [Transport.t] endpoint functions and the [Wire.codec]
   enc/dec functions, so e.g. the stack codec's time inside
   [Batcher.broadcast] is charged to [wirefmt.enc], not to the batcher. *)

module Aba = Bca_core.Aba
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node
module Wire = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Transport = Bca_transport.Transport
module Batcher = Bca_transport.Batcher
module Cluster = Bca_transport.Cluster
module Rsm = Bca_rsm.Rsm
module Value = Bca_util.Value
module Stack = Aba.Byz_strong_stack

let l_send = Span.layer "transport.send"
let l_recv = Span.layer "transport.recv"
let l_broadcast = Span.layer "batcher.broadcast"
let l_bsend = Span.layer "batcher.send"
let l_bflush = Span.layer "batcher.flush"
let l_iter_view = Span.layer "batch.iter_view"
let l_encode_buf = Span.layer "wire.encode_buf"
let l_decode_body = Span.layer "wire.decode_body"
let l_enc = Span.layer "wirefmt.enc"
let l_dec = Span.layer "wirefmt.dec"
let l_receive = Span.layer "aa_strong.receive"
let l_step = Span.layer "async_exec.step"
let l_handle = Span.layer "rsm.handle"
let l_submit = Span.layer "rsm.submit"
let l_cstep = Span.layer "cluster.step"
let l_idle = Span.layer ~every_call:true "cluster.idle"
let l_setup = Span.layer ~every_call:true "harness.setup"

(* Counts taken at the same boundaries as the spans. *)
type counters = {
  mutable polls : int;
  mutable empty_polls : int;
  mutable writes : int;
  mutable bytes : int;
  mutable batches : int;
  mutable records : int;
  mutable view_records : int;
  mutable hop_max : int;
  mutable runs : int;
  mutable deliveries : int;
}

let counters () =
  { polls = 0; empty_polls = 0; writes = 0; bytes = 0; batches = 0; records = 0;
    view_records = 0; hop_max = 0; runs = 0; deliveries = 0 }

let wrap_net c (net : Transport.t) =
  let poll r =
    c.polls <- c.polls + 1;
    if Option.is_none r then c.empty_polls <- c.empty_polls + 1;
    r
  in
  { net with
    Transport.send = (fun ~dst s -> Span.time l_send (fun () -> net.Transport.send ~dst s));
    recv = (fun ~timeout_s -> poll (Span.time l_recv (fun () -> net.Transport.recv ~timeout_s)));
    recv_view =
      (fun ~timeout_s -> poll (Span.time l_recv (fun () -> net.Transport.recv_view ~timeout_s))) }

let wrap_codec (w : 'm Wire.codec) =
  { w with
    Wire.enc = (fun b m -> Span.time l_enc (fun () -> w.Wire.enc b m));
    dec = (fun g -> Span.time l_dec (fun () -> w.Wire.dec g)) }

let idle seconds = Span.time l_idle (fun () -> ignore (Unix.select [] [] [] seconds))

let tally_net c (ends : Transport.t array) =
  Array.iter
    (fun (ep : Transport.t) ->
      c.writes <- c.writes + ep.Transport.stats.writes;
      c.bytes <- c.bytes + ep.Transport.stats.bytes_out)
    ends

(* Open all [n] endpoints or none (a TCP port can be stolen between pick
   and bind: the caller retries with fresh ports). *)
let open_endpoints ~addrs ~n =
  let opened = ref [] in
  try
    for me = 0 to n - 1 do
      opened :=
        Transport.Socket.endpoint ~max_queue_bytes:(8 * 1024 * 1024) ~addrs ~me () :: !opened
    done;
    Ok (Array.of_list (List.rev !opened))
  with Unix.Unix_error (e, fn, _) ->
    List.iter (fun (ep : Transport.t) -> ep.Transport.close ()) !opened;
    Error (e, Printf.sprintf "%s: %s" fn (Unix.error_message e))

let close_endpoints ends =
  Array.iter (fun (ep : Transport.t) -> ignore (ep.Transport.flush ~timeout_s:0.5)) ends;
  Array.iter (fun (ep : Transport.t) -> ep.Transport.close ()) ends

(* ---- aba-b64: one party of B instances over a batched endpoint -------- *)

type 'm party = {
  p_me : int;
  p_wire : 'm Wire.codec;
  p_nodes : 'm Node.t array;
  p_net : Transport.t;
  p_bat : Batcher.t;
  p_local : (int * int * 'm) Queue.t;
  p_done : bool array;
  mutable p_undecided : int;
}

let party_emits p k emits =
  let enc m b = p.p_wire.Wire.enc b m in
  List.iter
    (function
      | Node.Broadcast m ->
        Queue.push (k, p.p_me, m) p.p_local;
        Span.time l_broadcast (fun () ->
            Batcher.broadcast ~except:p.p_me p.p_bat ~instance:k ~enc:(enc m))
      | Node.Unicast (d, m) when d = p.p_me -> Queue.push (k, p.p_me, m) p.p_local
      | Node.Unicast (d, m) ->
        Span.time l_bsend (fun () -> Batcher.send p.p_bat ~dst:d ~instance:k ~enc:(enc m)))
    emits

let party_deliver p k ~src m =
  party_emits p k (Span.time l_receive (fun () -> p.p_nodes.(k).Node.receive ~src m));
  if (not p.p_done.(k)) && p.p_nodes.(k).Node.terminated () then begin
    p.p_done.(k) <- true;
    p.p_undecided <- p.p_undecided - 1
  end

let party_dispatch c p (v : Wire.view) =
  let drop () = p.p_net.Transport.stats.drops <- p.p_net.Transport.stats.drops + 1 in
  if v.Wire.v_codec_id <> Batch.codec_id then drop ()
  else begin
    let src = v.Wire.v_sender in
    let batch = ref [] in
    let walked =
      Span.time l_iter_view (fun () ->
          Batch.iter_view v ~record:(fun ~instance g ->
              if instance >= Array.length p.p_nodes then
                raise (Wire.Get.Malformed "batch record: instance id out of range");
              let m = p.p_wire.Wire.dec g in
              Wire.Get.expect_end g;
              batch := (instance, m) :: !batch))
    in
    match walked with
    | Ok (inner, count) when inner = p.p_wire.Wire.id ->
      c.view_records <- c.view_records + count;
      List.iter (fun (k, m) -> party_deliver p k ~src m) (List.rev !batch)
    | Ok _ | Error _ -> drop ()
  end

let party_make ~wire ~(insts : _ Aba.instance array) ~(net : Transport.t) =
  let me = net.Transport.me in
  let p =
    { p_me = me;
      p_wire = wire;
      p_nodes = Array.map (fun (i : _ Aba.instance) -> Async.node_of i.Aba.i_exec me) insts;
      p_net = net;
      p_bat = Batcher.create ~inner_codec_id:wire.Wire.id net;
      p_local = Queue.create ();
      p_done = Array.make (Array.length insts) false;
      p_undecided = Array.length insts }
  in
  (* ship every instance's initial src=me envelopes, in send (eid) order *)
  Array.iteri
    (fun k (inst : _ Aba.instance) ->
      let initial =
        List.sort (fun a b -> Int.compare a.Async.eid b.Async.eid) (Async.inflight inst.Aba.i_exec)
      in
      List.iter
        (fun e ->
          if e.Async.src = me then
            party_emits p k [ Node.Unicast (e.Async.dst, e.Async.payload) ])
        initial;
      if p.p_nodes.(k).Node.terminated () then begin
        p.p_done.(k) <- true;
        p.p_undecided <- p.p_undecided - 1
      end)
    insts;
  p

(* One scheduling slice, as the product's: drain local deliveries, take at
   most one inbound batch, drain again, flush the open batches. *)
let party_step c p =
  let progressed = ref false in
  let drain () =
    while not (Queue.is_empty p.p_local) do
      let k, src, m = Queue.pop p.p_local in
      party_deliver p k ~src m;
      progressed := true
    done
  in
  drain ();
  (match p.p_net.Transport.recv_view ~timeout_s:0. with
  | Some v ->
    party_dispatch c p v;
    progressed := true;
    drain ()
  | None -> ());
  Span.time l_bflush (fun () -> Batcher.flush p.p_bat);
  !progressed

let dir_counter = ref 0

let with_socket_dir f =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "traced-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* Charge [f]'s run up to its first call of the callback it is given to
   the set-up layer: [Aba.run_custom_many] assembles every instance before
   it calls the driver, and that assembly is harness cost, not protocol
   cost. *)
let with_setup_prefix f =
  Span.enter l_setup;
  let open_ = ref true in
  let close () =
    if !open_ then begin
      open_ := false;
      Span.leave ()
    end
  in
  match f close with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Decide [instances] byz-strong instances at n=4 over Unix-domain sockets;
   returns the number of instances decided with agreement and validity. *)
let aba_cluster c ~seed ~instances ~timeout_s =
  let cfg = Types.cfg ~n:4 ~t:1 in
  let n = cfg.Types.n in
  let seeds = Array.init instances (Cluster.instance_seed ~seed) in
  let inputs = Array.init instances (Cluster.instance_inputs ~seed ~n) in
  with_socket_dir (fun dir ->
      let addrs = Transport.Socket.unix_addrs ~dir ~n in
      with_setup_prefix (fun setup_done ->
          let driver =
            { Aba.drive_many =
                (fun ~wire insts ->
                  setup_done ();
                  let wire = wrap_codec wire in
                  match Span.time l_setup (fun () -> open_endpoints ~addrs ~n) with
                  | Error (_, msg) -> Error ("endpoint setup failed: " ^ msg)
                  | Ok ends ->
                    let parties =
                      Span.time l_setup (fun () ->
                          Array.map
                            (fun net -> party_make ~wire ~insts ~net:(wrap_net c net))
                            ends)
                    in
                    let deadline = Unix.gettimeofday () +. timeout_s in
                    let rec loop () =
                      if Array.for_all (fun p -> p.p_undecided = 0) parties then Ok ()
                      else if Unix.gettimeofday () >= deadline then
                        Error "traced cluster timed out"
                      else begin
                        let progressed = ref false in
                        Array.iter
                          (fun p ->
                            if Span.time l_cstep (fun () -> party_step c p) then
                              progressed := true)
                          parties;
                        if not !progressed then idle 0.001;
                        loop ()
                      end
                    in
                    let outcome = loop () in
                    Span.time l_setup (fun () -> close_endpoints ends);
                    tally_net c ends;
                    Array.iter
                      (fun p ->
                        let st = Batcher.stats p.p_bat in
                        c.batches <- c.batches + st.Batcher.batches;
                        c.records <- c.records + st.Batcher.records)
                      parties;
                    Result.map
                      (fun () ->
                        Array.fold_left
                          (fun ok (inst : _ Aba.instance) ->
                            let commits =
                              Array.map
                                (fun (p : Aba.party) -> p.Aba.committed ())
                                inst.Aba.i_parties
                            in
                            let iv = inputs.(inst.Aba.i_id) in
                            match commits.(0) with
                            | Some v
                              when Array.for_all (fun x -> x = Some v) commits
                                   && (not (Array.for_all (Value.equal iv.(0)) iv)
                                      || Value.equal v iv.(0)) ->
                              ok + 1
                            | _ -> ok)
                          0 insts)
                      outcome)
            }
          in
          match Aba.run_custom_many Aba.Byz_strong ~cfg ~seeds ~inputs ~driver with
          | Ok r -> r
          | Error _ as e -> e))

(* ---- log-sat / log-hop: the replicated log under open-loop load ------- *)

let rsm_wire = wrap_codec Bca_rsm.Wirefmt.rsm

type replica = {
  r_me : int;
  r_rsm : Rsm.t;
  r_net : Transport.t;
  r_local : Rsm.msg Queue.t;
  r_scratch : Buffer.t;
  r_hop_s : float;
  r_outq : (float * string) Queue.t;
}

let replica_send_all r s =
  for d = 0 to r.r_net.Transport.n - 1 do
    if d <> r.r_me then r.r_net.Transport.send ~dst:d s
  done

let replica_send_due c r =
  if r.r_hop_s > 0. then begin
    c.hop_max <- max c.hop_max (Queue.length r.r_outq);
    let now = Unix.gettimeofday () in
    let rec go () =
      match Queue.peek_opt r.r_outq with
      | Some (due, s) when due <= now ->
        ignore (Queue.pop r.r_outq);
        replica_send_all r s;
        go ()
      | _ -> ()
    in
    go ()
  end

let replica_emits r msgs =
  List.iter
    (fun m ->
      let s =
        Span.time l_encode_buf (fun () ->
            Wire.encode_buf rsm_wire ~sender:r.r_me ~scratch:r.r_scratch m)
      in
      Queue.push m r.r_local;
      if r.r_hop_s > 0. then Queue.push (Unix.gettimeofday () +. r.r_hop_s, s) r.r_outq
      else replica_send_all r s)
    msgs

let replica_handle r ~from m =
  replica_emits r (Span.time l_handle (fun () -> Rsm.handle r.r_rsm ~from m))

let replica_drain r =
  while not (Queue.is_empty r.r_local) do
    replica_handle r ~from:r.r_me (Queue.pop r.r_local)
  done

let replica_step c r =
  replica_send_due c r;
  replica_drain r;
  match r.r_net.Transport.recv ~timeout_s:0. with
  | Some f ->
    (match Span.time l_decode_body (fun () -> Wire.decode_body rsm_wire f) with
    | Ok m -> replica_handle r ~from:f.Wire.sender m
    | Error _ -> r.r_net.Transport.stats.drops <- r.r_net.Transport.stats.drops + 1);
    replica_drain r;
    true
  | None -> false

(* [Cluster.run_rsm_loadgen] over TCP with the same load semantics:
   transaction [i] is due at [t0 + i/rate] (all at [t0] when [rate <= 0]),
   submitted round-robin.  Returns the transactions committed at replica 0
   once every replica's log agrees.  Raw spans are kept for the first
   [raw_epochs] epochs. *)
let log_loadgen c params ~rate ~total ~tx_bytes ~hop_s ~raw_epochs ~timeout_s =
  let n = params.Rsm.cfg.Types.n in
  let rec attempt tries =
    let addrs = Transport.Socket.tcp_addrs ~ports:(Transport.Socket.pick_tcp_ports ~n) in
    match Span.time l_setup (fun () -> open_endpoints ~addrs ~n) with
    | Error (Unix.EADDRINUSE, _) when tries < 3 -> attempt (tries + 1)
    | Error (_, msg) -> Error ("endpoint setup failed: " ^ msg)
    | Ok ends -> Ok ends
  in
  match attempt 1 with
  | Error _ as e -> e
  | Ok ends ->
    let committed = ref 0 in
    let on_commit ~epoch txs =
      if epoch >= raw_epochs then Span.recording := false;
      committed := !committed + List.length txs
    in
    let replicas =
      Span.time l_setup (fun () ->
          Array.map
            (fun (ep : Transport.t) ->
              let me = ep.Transport.me in
              let on_commit = if me = 0 then Some on_commit else None in
              let rsm, init = Rsm.create ?on_commit params ~me in
              let r =
                { r_me = me;
                  r_rsm = rsm;
                  r_net = wrap_net c ep;
                  r_local = Queue.create ();
                  r_scratch = Buffer.create 256;
                  r_hop_s = hop_s;
                  r_outq = Queue.create () }
              in
              replica_emits r init;
              r)
            ends)
    in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. timeout_s in
    let injected = ref 0 in
    let inject_due now =
      let any = ref false in
      while !injected < total && (rate <= 0. || now -. t0 >= Float.of_int !injected /. rate) do
        let i = !injected in
        let tx = Printf.sprintf "t%08d" i in
        let tx = tx ^ String.make (max 0 (tx_bytes - String.length tx)) '.' in
        ignore (Span.time l_submit (fun () -> Rsm.submit replicas.(i mod n).r_rsm tx) : bool);
        incr injected;
        any := true
      done;
      !any
    in
    let rec loop () =
      if Array.for_all (fun r -> Rsm.terminated r.r_rsm) replicas then Ok ()
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then Error "traced loadgen timed out"
        else begin
          let progressed = ref (inject_due now) in
          Array.iter
            (fun r -> if Span.time l_cstep (fun () -> replica_step c r) then progressed := true)
            replicas;
          if not !progressed then idle 0.0005;
          loop ()
        end
      end
    in
    let outcome = loop () in
    Span.time l_setup (fun () -> close_endpoints ends);
    tally_net c ends;
    Result.bind outcome (fun () ->
        let h0 = Cluster.rsm_log_hash (Rsm.log replicas.(0).r_rsm) in
        if
          not
            (Array.for_all
               (fun r -> Int64.equal (Cluster.rsm_log_hash (Rsm.log r.r_rsm)) h0)
               replicas)
        then Error "traced loadgen: log DISAGREEMENT"
        else Ok !committed)

(* ---- sim-byz: one [Aba.run] rebuilt from its public parts ------------- *)

(* The same assembly [Aba.run] performs for byz-strong (coin seed offset,
   party construction order, random scheduler over [Rng.create seed]), so
   a traced run delivers the same messages in the same order as the
   untraced one - checked against [Aba.run] by the caller. *)
let sim_run c ~seed ~cfg ~inputs =
  let n = cfg.Types.n in
  let exec, parties =
    Span.time l_setup (fun () ->
        let coin =
          Bca_coin.Coin.create Bca_coin.Coin.Strong ~n
            ~degree:(Aba.default_coin_degree Aba.Byz_strong ~t:cfg.Types.t)
            ~seed:(Int64.add seed 0x5EEDL)
        in
        let params = { Stack.cfg; mode = `Byz; coin; bca_params = (fun ~round:_ -> cfg) } in
        let parties = Array.init n (fun pid -> Stack.create params ~me:pid ~input:inputs.(pid)) in
        let exec =
          Async.create ~n ~make:(fun pid ->
              let t, initial = parties.(pid) in
              let node = Stack.node t in
              let receive ~src m = Span.time l_receive (fun () -> node.Node.receive ~src m) in
              ({ node with Node.receive }, List.map (fun m -> Node.Broadcast m) initial))
        in
        (exec, Array.map fst parties))
  in
  let sched = Async.random_scheduler (Bca_util.Rng.create seed) in
  (* one executor step: [Async_exec.run]'s termination check, then one
     delivery *)
  let step () = if Async.all_terminated exec then None else Some (Async.step exec sched) in
  let rec loop () =
    match Span.time l_step step with
    | None -> Ok ()
    | Some (`Delivered _) -> loop ()
    | Some `Empty -> Error "network quiesced before termination"
    | Some `Stopped -> Error "scheduler stopped"
  in
  Result.bind (loop ()) (fun () ->
      c.runs <- c.runs + 1;
      c.deliveries <- c.deliveries + Async.deliveries exec;
      match Stack.committed parties.(0) with
      | Some v when Array.for_all (fun t -> Stack.committed t = Some v) parties ->
        Ok (v, Async.deliveries exec)
      | _ -> Error "traced sim run: agreement violated")
