module Wire = Bca_wire.Wire
module Batch = Bca_wire.Batch
module Bufpool = Bca_wire.Bufpool
module Trace = Bca_obs.Trace
module Event = Bca_obs.Event

type policy = { max_records : int; max_bytes : int }

let policy ?(max_records = 64) ?(max_bytes = 32 * 1024) () =
  if max_records < 1 then invalid_arg "Batcher.policy: max_records < 1";
  if max_bytes < 1 then invalid_arg "Batcher.policy: max_bytes < 1";
  { max_records; max_bytes }

let immediate = { max_records = 1; max_bytes = max_int }

type stats = {
  mutable batches : int;
  mutable records : int;
  mutable count_flushes : int;
  mutable size_flushes : int;
  mutable explicit_flushes : int;
  mutable max_occupancy : int;
}

let stats_zero () =
  { batches = 0;
    records = 0;
    count_flushes = 0;
    size_flushes = 0;
    explicit_flushes = 0;
    max_occupancy = 0 }

(* One destination's open batch: the record region under construction. *)
type slot = { mutable sl_count : int; sl_buf : Buffer.t }

type t = {
  bt_net : Transport.t;
  bt_inner : int;
  bt_policy : policy;
  bt_slots : slot array;
  bt_scratch : Buffer.t;  (** one message body being encoded *)
  bt_pool : Bufpool.t;  (** staging for assembled batch bodies *)
  bt_stats : stats;
  bt_tracer : Trace.t;
  bt_tracing : bool;
}

let create ?(tracer = Trace.null) ?policy:(pol = policy ()) ~inner_codec_id net =
  if inner_codec_id < 0 || inner_codec_id > 0xFF || inner_codec_id = Batch.codec_id then
    invalid_arg "Batcher.create: bad inner codec id";
  { bt_net = net;
    bt_inner = inner_codec_id;
    bt_policy = pol;
    bt_slots = Array.init net.Transport.n (fun _ -> { sl_count = 0; sl_buf = Buffer.create 512 });
    bt_scratch = Buffer.create 128;
    bt_pool = Bufpool.create ~initial_capacity:1024 ();
    bt_stats = stats_zero ();
    bt_tracer = tracer;
    bt_tracing = Trace.enabled tracer }

let stats t = t.bt_stats

let pending t = Array.fold_left (fun acc sl -> acc + sl.sl_count) 0 t.bt_slots

let trace t ~peer ~op ~bytes =
  if t.bt_tracing then
    Trace.emit t.bt_tracer (Event.Transport { pid = t.bt_net.Transport.me; peer; op; bytes })

let flush_slot t dst ~trigger =
  let sl = t.bt_slots.(dst) in
  if sl.sl_count > 0 then begin
    let frame =
      Bufpool.with_buf t.bt_pool (fun buf ->
          Wire.open_frame buf;
          Batch.make_body_into buf ~inner_codec_id:t.bt_inner ~count:sl.sl_count sl.sl_buf;
          Wire.seal_frame buf ~codec_id:Batch.codec_id ~sender:t.bt_net.Transport.me)
    in
    let st = t.bt_stats in
    st.batches <- st.batches + 1;
    if sl.sl_count > st.max_occupancy then st.max_occupancy <- sl.sl_count;
    (match trigger with
    | `Count -> st.count_flushes <- st.count_flushes + 1
    | `Size -> st.size_flushes <- st.size_flushes + 1
    | `Explicit -> st.explicit_flushes <- st.explicit_flushes + 1);
    trace t ~peer:dst ~op:"flush" ~bytes:(String.length frame);
    trace t ~peer:dst ~op:"batch" ~bytes:sl.sl_count;
    Buffer.clear sl.sl_buf;
    sl.sl_count <- 0;
    t.bt_net.Transport.send ~dst frame
  end

let send_scratch t ~dst ~instance =
  let sl = t.bt_slots.(dst) in
  Batch.add_record_buf sl.sl_buf ~instance t.bt_scratch;
  sl.sl_count <- sl.sl_count + 1;
  t.bt_stats.records <- t.bt_stats.records + 1;
  if sl.sl_count >= t.bt_policy.max_records then flush_slot t dst ~trigger:`Count
  else if Buffer.length sl.sl_buf >= t.bt_policy.max_bytes then flush_slot t dst ~trigger:`Size

let send t ~dst ~instance ~enc =
  if dst < 0 || dst >= t.bt_net.Transport.n then invalid_arg "Batcher.send: dst out of range";
  if instance < 0 then invalid_arg "Batcher.send: negative instance";
  Buffer.clear t.bt_scratch;
  enc t.bt_scratch;
  send_scratch t ~dst ~instance

let broadcast ?except t ~instance ~enc =
  if instance < 0 then invalid_arg "Batcher.broadcast: negative instance";
  Buffer.clear t.bt_scratch;
  enc t.bt_scratch;
  let skip dst = match except with Some e -> e = dst | None -> false in
  for dst = 0 to t.bt_net.Transport.n - 1 do
    if not (skip dst) then send_scratch t ~dst ~instance
  done

let flush_dst t dst = flush_slot t dst ~trigger:`Explicit

let flush t =
  for dst = 0 to Array.length t.bt_slots - 1 do
    flush_slot t dst ~trigger:`Explicit
  done
