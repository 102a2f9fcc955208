(* Span accounting for the traced drivers.

   Every timed layer call pushes a frame on one span stack; on exit the
   frame's duration is charged to its layer as inclusive time, and the
   duration minus what its child spans covered as self time.  Minor-heap
   words are split the same way.  The clock is the raw monotonic clock (one
   noalloc vDSO read, about 18 ns, at each boundary).

   Sampling: two clock reads per call would cost a fine-grained driver
   about half its speed, so outside a timed span only every [k]-th call of
   a layer is timed (all calls are counted).  Calls nested in a timed span
   are always timed, which keeps every timed call's self time exact; a
   layer's totals are then its timed sums scaled by calls / timed calls.
   [k] must be prime to the drivers' round-robin over parties, or every
   timed call would come from the same party.  Layers made with
   [~every_call:true] (long, rare calls: idle waits, set-up) ignore [k],
   and so does everything while raw spans are being recorded.

   Overhead compensation, measured by [calibrate] on empty calls: each
   window [t0, t1] reads [window_ns] more than the call inside it (part of
   the clock reads themselves), and the machinery outside the window (stack
   push, counters, the closure) costs [outside_ns].  The first is taken out
   of every measured duration, both out of the parent's self time, and
   both, per timed call, out of the wall time the closure check divides by
   ([work_ns]). *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer = {
  name : string;
  every_call : bool;
  mutable calls : int;
  mutable timed : int;
  mutable self_ns : int;  (** over timed calls *)
  mutable incl_ns : int;  (** over timed calls *)
  mutable self_words : float;  (** over timed calls *)
}

let registry : layer list ref = ref []

let layer ?(every_call = false) name =
  let l = { name; every_call; calls = 0; timed = 0; self_ns = 0; incl_ns = 0; self_words = 0. } in
  registry := l :: !registry;
  l

let sample_k = ref 1

let window_ns = ref 0
let outside_ns = ref 0

type raw = { r_layer : string; r_t0 : int; r_dur : int; r_depth : int }

(* Raw spans of a bounded prefix of the run, kept in memory and written as
   JSONL at exit: (layer, start, duration, depth). *)
let recording = ref false
let raw_cap = 200_000
let raws : raw list ref = ref []
let raw_count = ref 0

let reset () =
  raws := [];
  raw_count := 0;
  List.iter
    (fun l ->
      l.calls <- 0;
      l.timed <- 0;
      l.self_ns <- 0;
      l.incl_ns <- 0;
      l.self_words <- 0.)
    !registry

(* Per-call means over the timed calls, and estimated totals. *)
let mean l x = if l.timed = 0 then 0. else x /. Float.of_int l.timed
let self_ns_per_call l = mean l (Float.of_int l.self_ns)
let incl_ns_per_call l = mean l (Float.of_int l.incl_ns)
let words_per_call l = mean l l.self_words
let est_self_ns l = self_ns_per_call l *. Float.of_int l.calls
let est_incl_ns l = incl_ns_per_call l *. Float.of_int l.calls
let total_self_ns () = List.fold_left (fun a l -> a +. est_self_ns l) 0. !registry

let max_depth = 32

let dummy =
  { name = ""; every_call = true; calls = 0; timed = 0; self_ns = 0; incl_ns = 0; self_words = 0. }

let st_layer = Array.make max_depth dummy
let st_t0 = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.
let st_child_w = Array.make max_depth 0.
let depth = ref 0

let enter l =
  let d = !depth in
  if d >= max_depth then invalid_arg "Span.enter: stack too deep";
  st_layer.(d) <- l;
  st_child_ns.(d) <- 0;
  st_child_w.(d) <- 0.;
  st_w0.(d) <- Gc.minor_words ();
  depth := d + 1;
  st_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let l = st_layer.(d) in
  let raw_dt = t1 - st_t0.(d) in
  let dt = raw_dt - !window_ns in
  let dw = w1 -. st_w0.(d) in
  l.timed <- l.timed + 1;
  l.incl_ns <- l.incl_ns + dt;
  l.self_ns <- l.self_ns + dt - st_child_ns.(d);
  l.self_words <- l.self_words +. dw -. st_child_w.(d);
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + raw_dt + !outside_ns;
    st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw
  end;
  if !recording && !raw_count < raw_cap then begin
    raws := { r_layer = l.name; r_t0 = st_t0.(d); r_dur = raw_dt; r_depth = d } :: !raws;
    incr raw_count
  end

let time l f =
  l.calls <- l.calls + 1;
  if !depth > 0 || l.every_call || !recording || l.calls mod !sample_k = 0 then begin
    enter l;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end
  else f ()

(* Time [n] empty calls of a private layer from outside: their mean
   measured duration is the in-window cost, and what the outer clock sees
   beyond the windows is the outside cost.  Medians of 9 samples. *)
let calibrate () =
  let probe = { dummy with name = "calibrate" } in
  let saved_k = !sample_k and saved_rec = !recording in
  sample_k := 1;
  recording := false;
  window_ns := 0;
  outside_ns := 0;
  let n = 20_000 in
  let samples =
    Array.init 9 (fun _ ->
        probe.incl_ns <- 0;
        let t0 = now_ns () in
        for _ = 1 to n do
          time probe ignore
        done;
        let outer = now_ns () - t0 in
        (probe.incl_ns / n, (outer - probe.incl_ns) / n))
  in
  let med f =
    let a = Array.map f samples in
    Array.sort Int.compare a;
    a.(4)
  in
  window_ns := max 0 (med fst);
  outside_ns := max 0 (med snd);
  sample_k := saved_k;
  recording := saved_rec

(* Wall time of the traced work: [wall_ns] minus the machinery's cost of
   every timed call. *)
let work_ns ~wall_ns =
  let timed = List.fold_left (fun a l -> a + l.timed) 0 !registry in
  wall_ns -. Float.of_int ((!window_ns + !outside_ns) * timed)

let write_raws path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let spans = List.rev !raws in
      let base = List.fold_left (fun a s -> min a s.r_t0) max_int spans in
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"layer\": %s, \"t_ns\": %d, \"dur_ns\": %d, \"depth\": %d}\n"
            (Json.escape s.r_layer) (s.r_t0 - base) s.r_dur s.r_depth)
        spans)
