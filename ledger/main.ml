(* The performance ledger: four workloads, named end-to-end metrics, and a
   traced per-layer breakdown.  See README.md in this directory.

     main.exe run --workload W|all --seed N --seconds S --trace 0|1 [--json PATH]
     main.exe smoke [--bench BENCHMARK.json]
     main.exe summarize --out PATH RUN.json...
     main.exe compare [--bench BENCHMARK.json] BASE NEW...

   [run] prints every metric by name and unit, then - as its last line -
   one JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics untraced ([--trace 0]) or the per-layer metrics ([--trace 1]). *)

module W = Workloads

let scratch_dir = ".ledger"

(* Everything the benchmark writes stays under the working directory:
   Unix-domain sockets, WAL files and span dumps go to [.ledger/]
   (relative, so socket paths stay short whatever the checkout path). *)
let init_scratch () =
  let mk d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  mk scratch_dir;
  mk (Filename.concat scratch_dir "tmp");
  Filename.set_temp_dir_name (Filename.concat scratch_dir "tmp")

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0. then 0. else a /. b

(* ---- end-to-end metrics -------------------------------------------------- *)

let time_setups (w : W.workload) ctx ~reps =
  Array.init reps (fun _ ->
      let t0 = W.now () in
      w.W.setup ctx;
      W.now () -. t0)

let heap_peak_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Set-up three times (once at smoke size) and report the median, then
   measure for [seconds]. *)
let end_to_end (w : W.workload) ctx ~seconds =
  let setups = time_setups w ctx ~reps:(match ctx.W.size with W.Full -> 3 | W.Smoke -> 1) in
  let e = w.W.measure ctx ~budget_s:seconds in
  Printf.printf "%s: %d ops in %.3f s; lat_tail_ms is the %s\n" w.W.name e.W.ops e.W.wall_s
    e.W.tail;
  [ m "ops_per_s" "1/s" e.W.ops_per_s;
    m "lat_p50_ms" "ms" e.W.lat_p50_ms;
    m "lat_tail_ms" "ms" e.W.lat_tail_ms;
    m "heap_peak_mb" "MB" (heap_peak_mb ());
    m "setup_s" "s" (Stats.median setups) ]

(* ---- per-layer metrics --------------------------------------------------- *)

(* One set-up, then 40% of [seconds] untraced (the Gc counts, and the
   reference for the tracing overhead), 50% through the traced drivers,
   then the microbenches. *)
let per_layer (w : W.workload) ctx ~seconds =
  let module T = Traced in
  ignore (time_setups w ctx ~reps:1 : float array);
  let w0 = Gc.minor_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = W.now () in
  let e = w.W.measure ctx ~budget_s:(0.4 *. seconds) in
  let untraced_wall = W.now () -. t0 in
  let minor = Gc.minor_words () -. w0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - maj0 in
  Span.reset ();
  Span.calibrate ();
  Span.sample_k := w.W.trace_k;
  let t = w.W.trace ctx ~budget_s:(0.5 *. seconds) in
  let c = t.W.t_counters in
  let micro = Micro.run (match ctx.W.size with W.Full -> Micro.full | W.Smoke -> Micro.smoke) in
  let ops = Float.of_int (max 1 t.W.t_ops) and u_ops = Float.of_int (max 1 e.W.ops) in
  let count x = Float.of_int x in
  let wall_ns = t.W.t_wall_s *. 1e9 in
  let ns = Span.self_ns_per_call and words = Span.words_per_call in
  let per_op (l : Span.layer) = count l.Span.calls /. ops in
  [ m "transport.send.ns" "ns" (ns T.l_send);
    m "transport.send.words" "words" (words T.l_send);
    m "transport.send.per_op" "count" (per_op T.l_send);
    m "transport.recv.ns" "ns" (ns T.l_recv);
    m "transport.recv.words" "words" (words T.l_recv);
    m "transport.recv.empty_frac" "frac" (ratio (count c.T.empty_polls) (count c.T.polls));
    m "transport.writes_per_op" "count" (count c.T.writes /. ops);
    m "transport.bytes_per_op" "B" (count c.T.bytes /. ops);
    m "batcher.broadcast.ns" "ns" (ns T.l_broadcast);
    m "batcher.broadcast.words" "words" (words T.l_broadcast);
    m "batcher.flush.ns" "ns" (ns T.l_bflush);
    m "batcher.records_per_batch" "count" (ratio (count c.T.records) (count c.T.batches));
    m "batch.iter_view.ns_per_record" "ns"
      (ratio (Span.est_self_ns T.l_iter_view) (count c.T.view_records));
    m "wire.encode_buf.ns" "ns" (ns T.l_encode_buf);
    m "wire.encode_buf.words" "words" (words T.l_encode_buf);
    m "wire.decode_body.ns" "ns" (ns T.l_decode_body);
    m "wire.decode_body.words" "words" (words T.l_decode_body);
    m "wirefmt.enc.ns" "ns" (ns T.l_enc);
    m "wirefmt.enc.words" "words" (words T.l_enc);
    m "wirefmt.dec.ns" "ns" (ns T.l_dec);
    m "wirefmt.dec.words" "words" (words T.l_dec);
    m "aa_strong.receive.ns" "ns" (ns T.l_receive);
    m "aa_strong.receive.words" "words" (words T.l_receive);
    m "aa_strong.receive.per_op" "count" (per_op T.l_receive);
    m "async_exec.step.ns" "ns" (Span.incl_ns_per_call T.l_step);
    m "async_exec.deliveries_per_run" "count" (ratio (count c.T.deliveries) (count c.T.runs));
    m "rsm.handle.ns" "ns" (ns T.l_handle);
    m "rsm.handle.words" "words" (words T.l_handle);
    m "rsm.handle.per_op" "count" (per_op T.l_handle);
    m "rsm.submit.ns" "ns" (ns T.l_submit);
    m "cluster.step.ns" "ns" (ns T.l_cstep);
    m "cluster.idle.share" "frac" (ratio (Span.est_incl_ns T.l_idle) wall_ns);
    m "cluster.idle.calls_per_op" "count" (per_op T.l_idle);
    m "cluster.hop_queue.max" "count" (count c.T.hop_max);
    m "harness.setup.share" "frac" (ratio (Span.est_self_ns T.l_setup) wall_ns);
    m "gc.minor_words_per_op" "words" (minor /. u_ops);
    m "gc.major_per_kop" "count" (count majors *. 1000. /. u_ops);
    m "trace.overhead_frac" "frac" (ratio (t.W.t_wall_s /. ops) (untraced_wall /. u_ops) -. 1.);
    m "trace.unexplained_frac" "frac" (1. -. ratio (Span.total_self_ns ()) (Span.work_ns ~wall_ns));
    m "trace.span_cost_ns" "ns" (count (!Span.window_ns + !Span.outside_ns));
    m "trace.sample_k" "count" (count !Span.sample_k) ]
  @ List.concat_map
      (fun (ns_name, ns_unit, words_name, (ns_v, words_v)) ->
        [ m ns_name ns_unit ns_v; m words_name "words" words_v ])
      micro

(* ---- one workload, one process --------------------------------------- *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  let metric x = (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]) in
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (Float.of_int r.attempted));
      ("failed", Json.Num (Float.of_int r.failed));
      ("metrics", Json.Obj (List.map metric r.metrics)) ]

let measure_workload (w : W.workload) ~seed ~seconds ~trace ~size =
  let ctx = { W.seed; size; attempted = 0; failed = 0; errors = []; epoch_rate = 0. } in
  let metrics = if trace then per_layer w ctx ~seconds else end_to_end w ctx ~seconds in
  List.iter (fun e -> Printf.eprintf "%s: %s\n%!" w.W.name e) (List.rev ctx.W.errors);
  { workload = w.W.name;
    correct =
      ctx.W.failed = 0 && ctx.W.attempted > 0
      && List.for_all (fun x -> Float.is_finite x.value) metrics;
    attempted = max 1 ctx.W.attempted;
    failed = ctx.W.failed;
    metrics }

let print_result r ~seed ~seconds ~trace =
  Printf.printf "ledger %s  seed=%Ld seconds=%g trace=%d\n" r.workload seed seconds
    (if trace then 1 else 0);
  List.iter (fun x -> Printf.printf "  %-34s %16.6g  %s\n" x.name x.value x.unit_) r.metrics;
  Printf.printf "  %-34s %16.6g  (%d failed of %d attempted)\n" "fail_frac"
    (Float.of_int r.failed /. Float.of_int r.attempted)
    r.failed r.attempted;
  Printf.printf "%s\n%!" (Json.to_string (result_json r))

let usage () =
  prerr_string
    "usage: main.exe run --workload aba-b64|log-sat|log-hop|sim-byz|all --seed N --seconds S\n\
    \                    --trace 0|1 [--json PATH]\n\
    \       main.exe smoke [--bench BENCHMARK.json]\n\
    \       main.exe summarize --out PATH RUN.json...\n\
    \       main.exe compare [--bench BENCHMARK.json] BASE NEW...\n";
  exit 2

(* [--flag value] pairs among positional arguments. *)
let parse_flags args ~known =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: v :: rest when List.mem f known -> go ((f, v) :: flags) pos rest
    | f :: _ when String.length f > 2 && String.sub f 0 2 = "--" ->
      Printf.eprintf "unknown or incomplete flag %S\n" f;
      usage ()
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags
let bench_path flags = Option.value ~default:"BENCHMARK.json" (flag flags "--bench")

(* Each workload in its own process, one after the other. *)
let run_all flags ~seed ~seconds ~trace =
  let failed =
    List.filter
      (fun (w : W.workload) ->
        let per_workload f =
          match flag flags f with Some p -> [ f; Printf.sprintf "%s.%s" p w.W.name ] | None -> []
        in
        let argv =
          [ Sys.executable_name; "run"; "--workload"; w.W.name; "--seed"; Int64.to_string seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ per_workload "--json"
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
            Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      W.all
  in
  exit (if failed = [] then 0 else 1)

let run_cmd args =
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json" ] in
  let flags, pos = parse_flags args ~known in
  let req name =
    match flag flags name with
    | Some v -> v
    | None ->
      Printf.eprintf "missing %s\n" name;
      usage ()
  in
  if pos <> [] then usage ();
  let seed = match Int64.of_string_opt (req "--seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (req "--seconds") with Some s when s > 0. -> s | _ -> usage ()
  in
  let trace = match req "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let w =
    match req "--workload" with
    | "all" -> run_all flags ~seed ~seconds ~trace
    | name -> (
      match W.find name with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %S\n" name;
        usage ())
  in
  init_scratch ();
  let r = measure_workload w ~seed ~seconds ~trace ~size:W.Full in
  if trace then begin
    let path = Filename.concat scratch_dir (Printf.sprintf "spans-%s.jsonl" w.W.name) in
    Span.write_raws path;
    Printf.printf "(%d raw spans written to %s)\n" !Span.raw_count path
  end;
  (match (flag flags "--json", result_json r) with
  | Some path, Json.Obj fields ->
    let tagged =
      ("workload", Json.Str w.W.name)
      :: ("seed", Json.Num (Int64.to_float seed))
      :: ("trace", Json.Num (if trace then 1. else 0.))
      :: fields
    in
    let oc = open_out path in
    output_string oc (Json.to_string (Json.Obj tagged) ^ "\n");
    close_out oc
  | _ -> ());
  print_result r ~seed ~seconds ~trace;
  if not r.correct then exit 1

(* ---- BENCHMARK.json ----------------------------------------------------- *)

type declared = { d_name : string; d_unit : string; d_better : string; d_bound : float option }

let load_bench path =
  let j = Json.of_file path in
  let section key =
    List.filter_map
      (fun e ->
        match (Json.str "name" e, Json.str "unit" e) with
        | Some d_name, Some d_unit ->
          Some
            { d_name;
              d_unit;
              d_better = Option.value ~default:"" (Json.str "better" e);
              d_bound = Json.num "bound" e }
        | _ -> None)
      (Json.list key j)
  in
  ( List.filter_map (Json.str "name") (Json.list "workloads" j),
    section "end_to_end",
    section "per_layer" )

(* Every workload at tiny size, both modes, in this process: every metric
   BENCHMARK.json declares must come out, with its unit, and nothing may
   fail.  The runtest gate. *)
let smoke_cmd args =
  let flags, pos = parse_flags args ~known:[ "--bench" ] in
  if pos <> [] then usage ();
  let workloads, e2e, layers = load_bench (bench_path flags) in
  init_scratch ();
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun (w : W.workload) -> w.W.name) W.all in
  if List.sort compare workloads <> List.sort compare names then
    problem "BENCHMARK.json workloads [%s] <> ledger workloads [%s]"
      (String.concat ", " workloads) (String.concat ", " names);
  List.iter
    (fun (w : W.workload) ->
      List.iter
        (fun trace ->
          let declared = if trace then layers else e2e in
          let t0 = W.now () in
          let r = measure_workload w ~seed:1L ~seconds:0.3 ~trace ~size:W.Smoke in
          Printf.printf "smoke %-8s trace=%b  %d metrics, %d/%d failed, %.2fs\n%!" w.W.name trace
            (List.length r.metrics) r.failed r.attempted (W.now () -. t0);
          if not r.correct then problem "%s trace=%b: %d failed" w.W.name trace r.failed;
          List.iter
            (fun d ->
              match List.find_opt (fun x -> x.name = d.d_name) r.metrics with
              | None -> problem "%s trace=%b: metric %s missing" w.W.name trace d.d_name
              | Some x when x.unit_ <> d.d_unit ->
                problem "%s: metric %s in %s, declared %s" w.W.name d.d_name x.unit_ d.d_unit
              | Some x when (not trace) && x.value <= 0. ->
                problem "%s: end-to-end metric %s is %g" w.W.name d.d_name x.value
              | Some _ -> ())
            declared;
          List.iter
            (fun x ->
              if not (List.exists (fun d -> d.d_name = x.name) declared) then
                problem "%s trace=%b: metric %s not declared" w.W.name trace x.name)
            r.metrics)
        [ false; true ])
    W.all;
  match List.rev !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* ---- summaries and comparison ------------------------------------------ *)

(* Per metric, the median and quartiles over k runs. *)
type row = { r_unit : string; r_median : float; r_q1 : float; r_q3 : float }

(* "aba-b64", or "aba-b64/traced" for per-layer results. *)
let label_of j =
  Option.value ~default:"?" (Json.str "workload" j)
  ^ if Json.num "trace" j = Some 1. then "/traced" else ""

let summarize_runs runs =
  let value name r =
    Option.bind (List.assoc_opt name (Json.fields "metrics" r)) (Json.num "value")
  in
  List.map
    (fun (name, v) ->
      let q1, r_median, q3 = Stats.quartiles (Array.of_list (List.filter_map (value name) runs)) in
      let r_unit = Option.value ~default:"" (Json.str "unit" v) in
      (name, { r_unit; r_median; r_q1 = q1; r_q3 = q3 }))
    (match runs with r :: _ -> Json.fields "metrics" r | [] -> [])

let summary_json ~first ~runs rows =
  let row (name, r) =
    ( name,
      Json.Obj
        [ ("median", Json.Num r.r_median); ("q1", Json.Num r.r_q1); ("q3", Json.Num r.r_q3);
          ("unit", Json.Str r.r_unit) ] )
  in
  Json.Obj
    [ ("workload", Option.value ~default:Json.Null (Json.member "workload" first));
      ("trace", Option.value ~default:Json.Null (Json.member "trace" first));
      ("runs", Json.Num (Float.of_int runs));
      ("metrics", Json.Obj (List.map row rows)) ]

(* A summary file, or run files summarized on the fly. *)
let rows_of_files files =
  match List.map Json.of_file files with
  | [ j ] when Json.member "runs" j <> None ->
    let row (name, v) =
      match (Json.num "median" v, Json.num "q1" v, Json.num "q3" v) with
      | Some r_median, Some r_q1, Some r_q3 ->
        Some (name, { r_unit = Option.value ~default:"" (Json.str "unit" v); r_median; r_q1; r_q3 })
      | _ -> None
    in
    (label_of j, List.filter_map row (Json.fields "metrics" j))
  | j :: _ as js -> (label_of j, summarize_runs js)
  | [] -> ("?", [])

let summarize_cmd args =
  match parse_flags args ~known:[ "--out" ] with
  | [ ("--out", out) ], (_ :: _ as files) ->
    let js = List.map Json.of_file files in
    let first = List.hd js in
    if List.exists (fun j -> label_of j <> label_of first) js then begin
      prerr_endline "summarize: runs of different workloads or trace modes";
      exit 1
    end;
    let oc = open_out out in
    output_string oc
      (Json.to_string (summary_json ~first ~runs:(List.length js) (summarize_runs js)) ^ "\n");
    close_out oc;
    Printf.printf "%s: %d runs summarized into %s\n" (label_of first) (List.length js) out
  | _ -> usage ()

(* BASE and NEW are summary or run files of one workload, or two
   directories of summaries compared file name by file name. *)
let compare_cmd args =
  let flags, paths = parse_flags args ~known:[ "--bench" ] in
  let _, e2e, _ = load_bench (bench_path flags) in
  let pairs =
    match paths with
    | [ base; fresh ] when Sys.is_directory base && Sys.is_directory fresh ->
      let names = Sys.readdir base in
      Array.sort compare names;
      List.filter_map
        (fun f ->
          if Filename.check_suffix f ".json" && Sys.file_exists (Filename.concat fresh f) then
            Some ([ Filename.concat base f ], [ Filename.concat fresh f ])
          else None)
        (Array.to_list names)
    | base :: (_ :: _ as fresh) -> [ ([ base ], fresh) ]
    | _ -> usage ()
  in
  let regressions = ref 0 in
  Printf.printf "%-14s %-32s %14s %14s %8s %9s  %s\n" "workload" "metric" "base median"
    "new median" "new IQR" "delta" "verdict";
  List.iter
    (fun (base, fresh) ->
      let w, base_rows = rows_of_files base in
      let _, new_rows = rows_of_files fresh in
      List.iter
        (fun (name, b) ->
          match List.assoc_opt name new_rows with
          | None -> Printf.printf "%-14s %-32s %14.6g %14s\n" w name b.r_median "missing"
          | Some x ->
            let delta = ratio (x.r_median -. b.r_median) b.r_median in
            let iqr = ratio (x.r_q3 -. x.r_q1) x.r_median in
            let verdict =
              match List.find_opt (fun d -> d.d_name = name) e2e with
              | Some { d_bound = Some bound; d_better; _ } ->
                let worse = if d_better = "lower" then delta else -.delta in
                if worse > bound then begin
                  incr regressions;
                  Printf.sprintf "REGRESSION (bound %.0f%%)" (bound *. 100.)
                end
                else if iqr > bound then "unresolved (spread > bound)"
                else Printf.sprintf "ok (bound %.0f%%)" (bound *. 100.)
              | _ -> "-"
            in
            Printf.printf "%-14s %-32s %14.6g %14.6g %7.1f%% %+8.1f%%  %s\n" w name b.r_median
              x.r_median (iqr *. 100.) (delta *. 100.) verdict)
        base_rows)
    pairs;
  if !regressions > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_cmd rest
  | "smoke" :: rest -> smoke_cmd rest
  | "summarize" :: rest -> summarize_cmd rest
  | "compare" :: rest -> compare_cmd rest
  | _ -> usage ()
