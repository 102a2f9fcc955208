(* Isolated microbenches for the layers the traced drivers cannot time from
   outside: quorum tallies and coin accesses run inside the protocol
   handlers, the CRC inside every frame codec, the netstring batch codec
   inside [Rsm], and the WAL is not on any benchmarked path yet (it is the
   baseline for the durable log).  Each reports the median over [reps] of
   ns and minor-heap words per unit of work. *)

module Quorum = Bca_util.Quorum
module Value = Bca_util.Value
module Coin = Bca_coin.Coin
module Wire = Bca_wire.Wire
module Rsm = Bca_rsm.Rsm
module Wal = Bca_recovery.Wal

type cfg = { budget_s : float; reps : int; flushes : int }

let full = { budget_s = 0.03; reps = 3; flushes = 15 }
let smoke = { budget_s = 0.002; reps = 1; flushes = 2 }

(* [f ()] performs [units] operations; run it until the budget is spent. *)
let measure cfg ~units f =
  let run () =
    let budget_ns = int_of_float (cfg.budget_s *. 1e9) in
    let w0 = Gc.minor_words () in
    let t0 = Span.now_ns () in
    let iters = ref 0 in
    while !iters = 0 || (!iters land 7 <> 0 || Span.now_ns () - t0 < budget_ns) do
      f ();
      incr iters
    done;
    let dt = Span.now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    let u = Float.of_int (!iters * units) in
    (Float.of_int dt /. u, dw /. u)
  in
  let samples = Array.init cfg.reps (fun _ -> run ()) in
  (Stats.median (Array.map fst samples), Stats.median (Array.map snd samples))

let n = 13

let value pid = Value.of_bool (pid land 1 = 0)

let frame = Wire.encode_raw ~codec_id:7 ~sender:1 (String.make 96 'x')

let txs = List.init 64 (fun i -> Printf.sprintf "t%08d" i ^ String.make 55 '.')

let with_wal f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ledger-wal-%d.log" (Unix.getpid ()))
  in
  let meta =
    { Wal.w_stack = "byz-strong"; w_eps = 0.; w_n = 4; w_t = 1; w_me = 0; w_seed = 1L;
      w_input = Value.of_bool true }
  in
  let w = Wal.create ~path meta in
  Fun.protect
    ~finally:(fun () ->
      Wal.close w;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f w)

(* Appends are buffered until a flush; time the appends only and make each
   256-record batch durable outside the timed region. *)
let wal_append cfg =
  with_wal (fun w ->
      let samples =
        Array.init cfg.reps (fun _ ->
            let ns = ref 0 and words = ref 0. and count = ref 0 in
            let stop = Span.now_ns () + int_of_float (cfg.budget_s *. 1e9) in
            while !count = 0 || Span.now_ns () < stop do
              let w0 = Gc.minor_words () in
              let t0 = Span.now_ns () in
              for _ = 1 to 256 do
                Wal.append w (Wal.Recv frame)
              done;
              ns := !ns + (Span.now_ns () - t0);
              words := !words +. (Gc.minor_words () -. w0);
              count := !count + 256;
              Wal.flush w
            done;
            (Float.of_int !ns /. Float.of_int !count, !words /. Float.of_int !count))
      in
      (Stats.median (Array.map fst samples), Stats.median (Array.map snd samples)))

(* One record appended, then [Wal.flush] (write + fsync) timed alone. *)
let wal_flush cfg =
  with_wal (fun w ->
      let samples =
        Array.init cfg.flushes (fun _ ->
            Wal.append w (Wal.Recv frame);
            let w0 = Gc.minor_words () in
            let t0 = Span.now_ns () in
            Wal.flush w;
            (Float.of_int (Span.now_ns () - t0) /. 1e3, Gc.minor_words () -. w0))
      in
      (Stats.median (Array.map fst samples), Stats.median (Array.map snd samples)))

(* (name of the ns metric, its unit, name of the words metric, result) *)
let run cfg =
  let full_quorum = Quorum.create () in
  for pid = 0 to n - 1 do
    ignore (Quorum.add_value full_quorum ~pid (value pid) : bool)
  done;
  let kib = String.make 4096 'k' in
  let batch = Rsm.encode_batch txs in
  let wal_image =
    let b = Buffer.create (1024 * 128) in
    for _ = 1 to 1024 do
      Wal.encode_record b (Wal.Recv frame)
    done;
    Buffer.contents b
  in
  let coin_seed = ref 0L in
  [ ( "quorum.add_first.ns", "ns", "quorum.add_first.words",
      measure cfg ~units:n (fun () ->
          let q = Quorum.create () in
          for pid = 0 to n - 1 do
            ignore (Quorum.add_first q ~pid (value pid) : bool)
          done) );
    ( "quorum.add_value.ns", "ns", "quorum.add_value.words",
      measure cfg ~units:(2 * n) (fun () ->
          let q = Quorum.create () in
          for pid = 0 to n - 1 do
            ignore (Quorum.add_value q ~pid (value pid) : bool);
            ignore (Quorum.add_value q ~pid (Value.negate (value pid)) : bool)
          done) );
    ( "quorum.count.ns", "ns", "quorum.count.words",
      measure cfg ~units:16 (fun () ->
          for i = 1 to 16 do
            ignore (Sys.opaque_identity (Quorum.count full_quorum (value i)) : int)
          done) );
    ( "coin.access.ns", "ns", "coin.access.words",
      measure cfg ~units:(64 * n) (fun () ->
          coin_seed := Int64.succ !coin_seed;
          let coin = Coin.create Coin.Strong ~n ~degree:4 ~seed:!coin_seed in
          for round = 1 to 64 do
            for pid = 0 to n - 1 do
              ignore (Coin.access coin ~round ~pid : Value.t)
            done
          done) );
    ( "wire.crc32.ns_per_kb", "ns/KiB", "wire.crc32.words",
      measure cfg ~units:4 (fun () -> ignore (Wire.crc32 kib ~pos:0 ~len:4096 : int32)) );
    ( "rsm.encode_batch.ns_per_tx", "ns", "rsm.encode_batch.words",
      measure cfg ~units:64 (fun () -> ignore (Rsm.encode_batch txs : string)) );
    ( "rsm.decode_batch.ns_per_tx", "ns", "rsm.decode_batch.words",
      measure cfg ~units:64 (fun () -> ignore (Rsm.decode_batch batch : Rsm.tx list)) );
    ("wal.append.ns", "ns", "wal.append.words", wal_append cfg);
    ("wal.flush.us", "us", "wal.flush.words", wal_flush cfg);
    ( "wal.decode.ns_per_record", "ns", "wal.decode.words",
      measure cfg ~units:1024 (fun () ->
          ignore (Wal.decode wal_image : Wal.record list * Wal.torn option)) ) ]
