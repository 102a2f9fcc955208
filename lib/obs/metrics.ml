module IMap = Map.Make (Int)
module SMap = Map.Make (String)

type round_stats = {
  entries : int;
  deliveries : int;
  sends : int;
  drops : int;
  commits : int;
  coin_reveals : int;
}

let rs_zero =
  { entries = 0; deliveries = 0; sends = 0; drops = 0; commits = 0; coin_reveals = 0 }

let rs_add a b =
  {
    entries = a.entries + b.entries;
    deliveries = a.deliveries + b.deliveries;
    sends = a.sends + b.sends;
    drops = a.drops + b.drops;
    commits = a.commits + b.commits;
    coin_reveals = a.coin_reveals + b.coin_reveals;
  }

type t = {
  runs : int;
  sends : int;
  deliveries : int;
  drops : int;
  violations : int;
  decided_runs : int;
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  resends : int;
  resend_bytes : int;
  recoveries : int;
  recovery_wal_bytes : int;
  revives : int;
  per_round : round_stats IMap.t;
  phases : int SMap.t;
  (* bucket maps: key -> how many samples fell in that bucket *)
  decision_rounds : int IMap.t;  (* first-commit round, one sample per deciding run *)
  round_latency : int IMap.t;  (* deliveries between consecutive round entries *)
  coin_commit_gap : int IMap.t;  (* deliveries from commit-round coin reveal to commit *)
  flush_bytes : int IMap.t;  (* batch frame sizes, one sample per batcher flush *)
  batch_occupancy : int IMap.t;  (* records per batch frame, one sample per flush *)
}

let empty =
  {
    runs = 0;
    sends = 0;
    deliveries = 0;
    drops = 0;
    violations = 0;
    decided_runs = 0;
    tx_frames = 0;
    tx_bytes = 0;
    rx_frames = 0;
    rx_bytes = 0;
    resends = 0;
    resend_bytes = 0;
    recoveries = 0;
    recovery_wal_bytes = 0;
    revives = 0;
    per_round = IMap.empty;
    phases = SMap.empty;
    decision_rounds = IMap.empty;
    round_latency = IMap.empty;
    coin_commit_gap = IMap.empty;
    flush_bytes = IMap.empty;
    batch_occupancy = IMap.empty;
  }

let bump map key = IMap.update key (fun c -> Some (1 + Option.value c ~default:0)) map
let bump_s map key = SMap.update key (fun c -> Some (1 + Option.value c ~default:0)) map

let touch_round per_round r f =
  IMap.update r (fun rs -> Some (f (Option.value rs ~default:rs_zero))) per_round

(* Transient per-run fold state; everything here is folded into the pure
   aggregate when the run's stream ends. *)
type run_state = {
  mutable sysround : int;  (* highest round any party has entered *)
  mutable enter_ts : int IMap.t;  (* round -> ts of its first Round_enter *)
  mutable coin_ts : int IMap.t;  (* round -> ts of its first Coin_reveal *)
  mutable first_commit : (int * int) option;  (* (round, ts) of first commit *)
}

let add_run t events =
  let st = { sysround = 1; enter_ts = IMap.empty; coin_ts = IMap.empty; first_commit = None } in
  let acc = ref t in
  Array.iter
    (fun { Event.ts; ev } ->
      let a = !acc in
      match ev with
      | Event.Send _ ->
        acc :=
          { a with sends = a.sends + 1;
                   per_round = touch_round a.per_round st.sysround
                       (fun rs -> { rs with sends = rs.sends + 1 }) }
      | Event.Deliver _ ->
        acc :=
          { a with deliveries = a.deliveries + 1;
                   per_round = touch_round a.per_round st.sysround
                       (fun rs -> { rs with deliveries = rs.deliveries + 1 }) }
      | Event.Drop _ ->
        acc :=
          { a with drops = a.drops + 1;
                   per_round = touch_round a.per_round st.sysround
                       (fun rs -> { rs with drops = rs.drops + 1 }) }
      | Event.Duplicate _ | Event.Redirect _ | Event.Swap _ | Event.Crash _
      | Event.Slot_commit _ | Event.Buffer_drop _ -> ()
      | Event.Round_enter { round; _ } ->
        if round > st.sysround then st.sysround <- round;
        if not (IMap.mem round st.enter_ts) then st.enter_ts <- IMap.add round ts st.enter_ts;
        acc :=
          { a with per_round = touch_round a.per_round round
                       (fun rs -> { rs with entries = rs.entries + 1 }) }
      | Event.Quorum { phase; _ } -> acc := { a with phases = bump_s a.phases phase }
      | Event.Coin_reveal { round; _ } ->
        if not (IMap.mem round st.coin_ts) then st.coin_ts <- IMap.add round ts st.coin_ts;
        acc :=
          { a with per_round = touch_round a.per_round round
                       (fun rs -> { rs with coin_reveals = rs.coin_reveals + 1 }) }
      | Event.Commit { round; _ } ->
        if st.first_commit = None then st.first_commit <- Some (round, ts);
        acc :=
          { a with per_round = touch_round a.per_round round
                       (fun rs -> { rs with commits = rs.commits + 1 }) }
      | Event.Violation _ -> acc := { a with violations = a.violations + 1 }
      | Event.Transport { op; bytes; _ } -> (
        (* ops the socket transport and the batcher emit; anything else
           (connect/retry/close/...) is connection bookkeeping, not traffic *)
        match op with
        | "tx" -> acc := { a with tx_frames = a.tx_frames + 1; tx_bytes = a.tx_bytes + bytes }
        | "rx" -> acc := { a with rx_frames = a.rx_frames + 1; rx_bytes = a.rx_bytes + bytes }
        | "flush" -> acc := { a with flush_bytes = bump a.flush_bytes bytes }
        | "batch" -> acc := { a with batch_occupancy = bump a.batch_occupancy bytes }
        | "resend" ->
          acc := { a with resends = a.resends + 1; resend_bytes = a.resend_bytes + bytes }
        | "recover" ->
          acc :=
            { a with recoveries = a.recoveries + 1;
                     recovery_wal_bytes = a.recovery_wal_bytes + bytes }
        | "revive" -> acc := { a with revives = a.revives + 1 }
        | _ -> ()))
    events;
  let a = !acc in
  (* Per-round latency: deliveries between consecutive first entries. *)
  let round_latency =
    IMap.fold
      (fun r ts latencies ->
        match IMap.find_opt (r + 1) st.enter_ts with
        | Some next_ts -> bump latencies (next_ts - ts)
        | None -> latencies)
      st.enter_ts a.round_latency
  in
  let decided_runs, decision_rounds, coin_commit_gap =
    match st.first_commit with
    | None -> (a.decided_runs, a.decision_rounds, a.coin_commit_gap)
    | Some (round, ts) ->
      let gaps =
        match IMap.find_opt round st.coin_ts with
        | Some coin_ts when coin_ts <= ts -> bump a.coin_commit_gap (ts - coin_ts)
        | _ -> a.coin_commit_gap
      in
      (a.decided_runs + 1, bump a.decision_rounds round, gaps)
  in
  { a with runs = a.runs + 1; round_latency; decided_runs; decision_rounds; coin_commit_gap }

let merge a b =
  {
    runs = a.runs + b.runs;
    sends = a.sends + b.sends;
    deliveries = a.deliveries + b.deliveries;
    drops = a.drops + b.drops;
    violations = a.violations + b.violations;
    decided_runs = a.decided_runs + b.decided_runs;
    tx_frames = a.tx_frames + b.tx_frames;
    tx_bytes = a.tx_bytes + b.tx_bytes;
    rx_frames = a.rx_frames + b.rx_frames;
    rx_bytes = a.rx_bytes + b.rx_bytes;
    resends = a.resends + b.resends;
    resend_bytes = a.resend_bytes + b.resend_bytes;
    recoveries = a.recoveries + b.recoveries;
    recovery_wal_bytes = a.recovery_wal_bytes + b.recovery_wal_bytes;
    revives = a.revives + b.revives;
    per_round = IMap.union (fun _ x y -> Some (rs_add x y)) a.per_round b.per_round;
    phases = SMap.union (fun _ x y -> Some (x + y)) a.phases b.phases;
    decision_rounds = IMap.union (fun _ x y -> Some (x + y)) a.decision_rounds b.decision_rounds;
    round_latency = IMap.union (fun _ x y -> Some (x + y)) a.round_latency b.round_latency;
    coin_commit_gap =
      IMap.union (fun _ x y -> Some (x + y)) a.coin_commit_gap b.coin_commit_gap;
    flush_bytes = IMap.union (fun _ x y -> Some (x + y)) a.flush_bytes b.flush_bytes;
    batch_occupancy =
      IMap.union (fun _ x y -> Some (x + y)) a.batch_occupancy b.batch_occupancy;
  }

let runs t = t.runs
let sends t = t.sends
let deliveries t = t.deliveries
let drops t = t.drops
let violations t = t.violations
let decided_runs t = t.decided_runs
let per_round t = IMap.bindings t.per_round
let phase_counts t = SMap.bindings t.phases

let hist_of_buckets buckets =
  let samples =
    IMap.fold
      (fun v count acc ->
        let rec rep n acc = if n = 0 then acc else rep (n - 1) (float_of_int v :: acc) in
        rep count acc)
      buckets []
  in
  Bca_util.Histogram.of_floats samples

let rounds_histogram t = hist_of_buckets t.decision_rounds
let round_latency_histogram t = hist_of_buckets t.round_latency
let coin_commit_gap_histogram t = hist_of_buckets t.coin_commit_gap
let tx t = (t.tx_frames, t.tx_bytes)
let rx t = (t.rx_frames, t.rx_bytes)
let resends t = (t.resends, t.resend_bytes)
let recoveries t = (t.recoveries, t.recovery_wal_bytes)
let revives t = t.revives
let flush_bytes_histogram t = hist_of_buckets t.flush_bytes
let batch_occupancy_histogram t = hist_of_buckets t.batch_occupancy

let bucket_total buckets = IMap.fold (fun _ c acc -> acc + c) buckets 0

let pp ppf t =
  Format.fprintf ppf "@[<v>runs=%d decided=%d sends=%d deliveries=%d drops=%d violations=%d@,"
    t.runs t.decided_runs t.sends t.deliveries t.drops t.violations;
  Format.fprintf ppf "per-round (round: entries sends deliveries drops coin commits):@,";
  IMap.iter
    (fun r rs ->
      Format.fprintf ppf "  r%-3d %5d %7d %7d %5d %5d %5d@," r rs.entries rs.sends
        rs.deliveries rs.drops rs.coin_reveals rs.commits)
    t.per_round;
  if not (SMap.is_empty t.phases) then begin
    Format.fprintf ppf "phase quorums:";
    SMap.iter (fun p c -> Format.fprintf ppf " %s=%d" p c) t.phases;
    Format.fprintf ppf "@,"
  end;
  if bucket_total t.decision_rounds > 0 then
    Format.fprintf ppf "decision round distribution:@,%a@," Bca_util.Histogram.pp
      (rounds_histogram t);
  if bucket_total t.round_latency > 0 then
    Format.fprintf ppf "round latency (deliveries) distribution:@,%a@," Bca_util.Histogram.pp
      (round_latency_histogram t);
  if bucket_total t.coin_commit_gap > 0 then
    Format.fprintf ppf "coin-reveal -> first-commit gap (deliveries) distribution:@,%a@,"
      Bca_util.Histogram.pp (coin_commit_gap_histogram t);
  if t.tx_frames > 0 || t.rx_frames > 0 then
    Format.fprintf ppf "transport: tx %d frames / %d bytes, rx %d frames / %d bytes@,"
      t.tx_frames t.tx_bytes t.rx_frames t.rx_bytes;
  if t.recoveries + t.resends + t.revives > 0 then
    Format.fprintf ppf
      "recovery: %d WAL replays (%d bytes), %d history resends (%d bytes), %d peer revivals@,"
      t.recoveries t.recovery_wal_bytes t.resends t.resend_bytes t.revives;
  if bucket_total t.flush_bytes > 0 then
    Format.fprintf ppf "batch flush size (bytes) distribution:@,%a@," Bca_util.Histogram.pp
      (flush_bytes_histogram t);
  if bucket_total t.batch_occupancy > 0 then
    Format.fprintf ppf "batch occupancy (records/frame) distribution:@,%a@,"
      Bca_util.Histogram.pp (batch_occupancy_histogram t);
  Format.fprintf ppf "@]"

let dist_json name buckets =
  if bucket_total buckets = 0 then Printf.sprintf "%S:null" name
  else begin
    let h = hist_of_buckets buckets in
    Printf.sprintf "%S:{\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d}" name
      (Bca_util.Histogram.percentile h 0.50)
      (Bca_util.Histogram.percentile h 0.90)
      (Bca_util.Histogram.percentile h 0.99)
      (fst (IMap.max_binding buckets))
  end

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"runs\":%d,\"decided_runs\":%d,\"sends\":%d,\"deliveries\":%d,\"drops\":%d,\"violations\":%d"
       t.runs t.decided_runs t.sends t.deliveries t.drops t.violations);
  Buffer.add_string buf ",\"per_round\":[";
  let first = ref true in
  IMap.iter
    (fun r rs ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"round\":%d,\"entries\":%d,\"sends\":%d,\"deliveries\":%d,\"drops\":%d,\"coin_reveals\":%d,\"commits\":%d}"
           r rs.entries rs.sends rs.deliveries rs.drops rs.coin_reveals rs.commits))
    t.per_round;
  Buffer.add_string buf "],\"phase_quorums\":{";
  let first = ref true in
  SMap.iter
    (fun p c ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_char buf '"';
      Bca_util.Json.escape buf p;
      Buffer.add_string buf (Printf.sprintf "\":%d" c))
    t.phases;
  Buffer.add_string buf "},";
  Buffer.add_string buf (dist_json "decision_rounds" t.decision_rounds);
  Buffer.add_char buf ',';
  Buffer.add_string buf (dist_json "round_latency_deliveries" t.round_latency);
  Buffer.add_char buf ',';
  Buffer.add_string buf (dist_json "coin_commit_gap_deliveries" t.coin_commit_gap);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"recovery\":{\"wal_replays\":%d,\"wal_replay_bytes\":%d,\"resends\":%d,\"resend_bytes\":%d,\"revives\":%d}"
       t.recoveries t.recovery_wal_bytes t.resends t.resend_bytes t.revives);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"transport\":{\"tx_frames\":%d,\"tx_bytes\":%d,\"rx_frames\":%d,\"rx_bytes\":%d,"
       t.tx_frames t.tx_bytes t.rx_frames t.rx_bytes);
  Buffer.add_string buf (dist_json "flush_bytes" t.flush_bytes);
  Buffer.add_char buf ',';
  Buffer.add_string buf (dist_json "batch_occupancy_records" t.batch_occupancy);
  Buffer.add_char buf '}';
  Buffer.add_char buf '}';
  Buffer.contents buf
