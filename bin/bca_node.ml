(* One node of a multi-process cluster, spawned n times (once per pid) by
   `bca cluster` / Bca_transport.Cluster.spawn.

   Every process is handed the same workload parameters and seed,
   rebuilds the identical deterministic assembly, and drives only its own
   node over the socket transport through Cluster.serve.  The workload is
   one binary agreement (--inputs), B pipelined agreements (--instances B,
   inputs derived from the seed, messages batched per destination), or
   one replica of the pipelined atomic-broadcast log (--rsm, the
   transactions derived from the seed parameters).  On success it prints
   exactly one report line on stdout and exits 0:

     REPORT pid=<me> frames=.. bytes=.. batches=.. records=.. <key> end

   where <key> is value=<0|1> rounds=<r>, values=<bits> rounds=<csv>, or
   epochs=<e> txs=<k> hash=<fnv64>; a node that recovered from its WAL
   adds recovered=<records>:<wal bytes>:<replay s> before the end token.
   Any failure (timeout, no decision, bad arguments) goes to stderr with a
   non-zero exit; losing a TCP bind race (EADDRINUSE) exits with the
   dedicated code the launcher retries on.

   Crash recovery (single agreement only): --wal-dir makes the node keep a
   durable write-ahead log; --recover replays it and rejoins the cluster
   mid-flight; --kill-at coin:R|round:R makes the node SIGKILL itself at
   that milestone (the supervisor's chaos trigger). *)

module Types = Bca_core.Types
module Value = Bca_util.Value
module Cluster = Bca_transport.Cluster
module Transport = Bca_transport.Transport
module Batcher = Bca_transport.Batcher

let usage = "bca_node --stack S --n N --t T --me I --seed SEED --inputs BITS \
             --transport unix|tcp --addrs a0,a1,... [--eps E] [--timeout S] [--linger S] \
             [--instances B] [--batch-records R] [--batch-bytes BY] \
             [--wal-dir DIR] [--recover] [--kill-at coin:R|round:R] \
             [--rsm] [--rsm-epochs E] [--rsm-window W] [--rsm-batch-txs K] \
             [--rsm-batch-bytes BY] [--rsm-txs K] [--rsm-tx-bytes BY]"

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("bca_node: " ^ msg); exit 2) fmt

(* --kill-at: SIGKILL ourselves the moment the trigger event fires -
   "coin:R" at our first access of round R's coin (the instant the paper's
   binding property must already hold), "round:R" at our entry into round
   R.  Implemented as a streaming tracer so the kill happens mid-receive,
   after the triggering delivery was WAL'd but before its consequences hit
   the wire - the worst torn state recovery must handle. *)
let parse_kill_at s =
  match String.index_opt s ':' with
  | None -> die "bad --kill-at %S (expected coin:R or round:R)" s
  | Some i -> (
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match (kind, int_of_string_opt arg) with
    | "coin", Some r -> `Coin r
    | "round", Some r -> `Round r
    | _ -> die "bad --kill-at %S (expected coin:R or round:R)" s)

let kill_tracer ~me trigger =
  Bca_obs.Trace.stream (fun { Bca_obs.Event.ev; _ } ->
      let fire =
        match (trigger, ev) with
        | `Coin r, Bca_obs.Event.Coin_reveal { pid; round; _ } -> pid = me && round = r
        | `Round r, Bca_obs.Event.Round_enter { pid; round } -> pid = me && round = r
        | _ -> false
      in
      if fire then Unix.kill (Unix.getpid ()) Sys.sigkill)

let parse_tcp_addr s =
  match String.rindex_opt s ':' with
  | None -> die "bad tcp address %S (expected host:port)" s
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | None -> die "bad port in %S" s
    | Some port -> (
      try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
      with Failure _ -> die "bad host in %S" s))

let () =
  let stack = ref "byz-strong" in
  let eps = ref 0.25 in
  let n = ref 0 in
  let t = ref (-1) in
  let me = ref (-1) in
  let seed = ref 1L in
  let inputs = ref "" in
  let transport = ref "unix" in
  let addrs = ref "" in
  let timeout = ref 30.0 in
  let linger = ref 1.0 in
  let instances = ref 1 in
  let batch_records = ref 64 in
  let batch_bytes = ref (32 * 1024) in
  let wal_dir = ref "" in
  let recover = ref false in
  let kill_at = ref "" in
  let rsm = ref false in
  let rsm_epochs = ref 8 in
  let rsm_window = ref 4 in
  let rsm_batch_txs = ref 64 in
  let rsm_batch_bytes = ref (64 * 1024) in
  let rsm_txs = ref 4 in
  let rsm_tx_bytes = ref 32 in
  let spec_list =
    [ ("--stack", Arg.Set_string stack, "Protocol stack (crash-strong .. byz-tsig)");
      ("--eps", Arg.Set_float eps, "Coin goodness for the weak stacks");
      ("--n", Arg.Set_int n, "Cluster size");
      ("--t", Arg.Set_int t, "Fault bound");
      ("--me", Arg.Set_int me, "This party's pid");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "Deterministic seed");
      ("--inputs", Arg.Set_string inputs, "One input bit per party (single-instance mode)");
      ("--transport", Arg.Set_string transport, "unix | tcp");
      ("--addrs", Arg.Set_string addrs, "Comma-separated address table, index = pid");
      ("--timeout", Arg.Set_float timeout, "Seconds before giving up");
      ("--linger", Arg.Set_float linger, "Seconds to keep answering peers after deciding");
      ("--instances", Arg.Set_int instances, "Concurrent agreement instances (default 1)");
      ("--batch-records", Arg.Set_int batch_records, "Flush a batch at this many records");
      ("--batch-bytes", Arg.Set_int batch_bytes, "... or at this many record bytes");
      ("--wal-dir", Arg.Set_string wal_dir, "Keep a durable write-ahead log in this directory");
      ("--recover", Arg.Set recover, "Replay the WAL and rejoin the cluster mid-flight");
      ("--kill-at", Arg.Set_string kill_at,
       "SIGKILL self at a milestone (coin:R or round:R; crash-recovery testing)");
      ("--rsm", Arg.Set rsm, "Run one replica of the pipelined log instead of a binary stack");
      ("--rsm-epochs", Arg.Set_int rsm_epochs, "Log length in epochs (with --rsm)");
      ("--rsm-window", Arg.Set_int rsm_window, "Concurrent in-flight epochs (with --rsm)");
      ("--rsm-batch-txs", Arg.Set_int rsm_batch_txs, "Proposal cut: max transactions per batch");
      ("--rsm-batch-bytes", Arg.Set_int rsm_batch_bytes, "... or at most this many payload bytes");
      ("--rsm-txs", Arg.Set_int rsm_txs, "Transactions this replica submits (derived workload)");
      ("--rsm-tx-bytes", Arg.Set_int rsm_tx_bytes, "Padded size of each derived transaction") ]
  in
  Arg.parse spec_list (fun a -> die "unexpected argument %S" a) usage;
  let multi = !instances > 1 in
  if !instances < 1 then die "--instances must be >= 1";
  if multi && (!wal_dir <> "" || !recover || !kill_at <> "") then
    die "--wal-dir / --recover / --kill-at require the single-instance executor";
  if !recover && !wal_dir = "" then die "--recover requires --wal-dir";
  if !rsm && (multi || !wal_dir <> "" || !recover || !kill_at <> "") then
    die "--rsm excludes --instances / --wal-dir / --recover / --kill-at";
  if !rsm then begin
    if !inputs <> "" then die "--inputs is meaningless with --rsm (the workload is derived)";
    if !n = 0 then die "--n is required with --rsm"
  end
  else if multi then begin
    if !inputs <> "" then die "--inputs is meaningless with --instances > 1 (inputs are derived)";
    if !n = 0 then die "--n is required with --instances > 1"
  end
  else begin
    if !n = 0 then n := String.length !inputs;
    if String.length !inputs <> !n then
      die "--inputs length %d <> n=%d" (String.length !inputs) !n;
    String.iter (fun c -> if c <> '0' && c <> '1' then die "bad input bit %C" c) !inputs
  end;
  if !me < 0 || !me >= !n then die "--me %d out of range for n=%d" !me !n;
  if !t < 0 then die "--t is required";
  let addr_list = if !addrs = "" then [] else String.split_on_char ',' !addrs in
  if List.length addr_list <> !n then
    die "--addrs has %d entries, expected n=%d" (List.length addr_list) !n;
  let addr_arr =
    match !transport with
    | "unix" -> Array.of_list (List.map (fun p -> Unix.ADDR_UNIX p) addr_list)
    | "tcp" -> Array.of_list (List.map parse_tcp_addr addr_list)
    | other -> die "unknown transport %S (expected unix or tcp)" other
  in
  let spec = match Cluster.parse_stack ~eps:!eps !stack with Ok s -> s | Error e -> die "%s" e in
  let job =
    if !rsm then
      Cluster.Rsm_log
        { epochs = !rsm_epochs;
          window = !rsm_window;
          batch = { Bca_rsm.Rsm.max_txs = !rsm_batch_txs; max_bytes = !rsm_batch_bytes };
          txs_per_node = !rsm_txs;
          tx_bytes = !rsm_tx_bytes }
    else if multi then
      match Batcher.policy ~max_records:!batch_records ~max_bytes:!batch_bytes () with
      | policy -> Cluster.Aba_many { spec; instances = !instances; policy }
      | exception Invalid_argument e -> die "%s" e
    else
      Cluster.Aba_one { spec; inputs = Array.init !n (fun i -> Value.of_bool (!inputs.[i] = '1')) }
  in
  let tracer =
    if !kill_at = "" then Bca_obs.Trace.null else kill_tracer ~me:!me (parse_kill_at !kill_at)
  in
  let net =
    try Transport.Socket.endpoint ~addrs:addr_arr ~me:!me ()
    with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      prerr_endline
        (Printf.sprintf "bca_node: address in use binding node %d (lost the port race)" !me);
      exit Cluster.addr_in_use_exit
  in
  match
    Cluster.serve ~timeout_s:!timeout ~linger_s:!linger ~tracer
      ?wal_dir:(if !wal_dir = "" then None else Some !wal_dir)
      ~recover:!recover ~seed:!seed ~cfg:(Types.cfg ~n:!n ~t:!t) job ~net
  with
  | Ok r -> print_endline (Cluster.report_to_line r)
  | Error e ->
    prerr_endline ("bca_node: " ^ e);
    exit 1
