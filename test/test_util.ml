(* Unit and property tests for the bca_util substrate. *)

module Rng = Bca_util.Rng
module Value = Bca_util.Value
module Quorum = Bca_util.Quorum
module Summary = Bca_util.Summary
module Tablefmt = Bca_util.Tablefmt

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.int64 a) (Rng.int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_bool_balance () =
  let rng = Rng.create 9L in
  let trues = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    if Rng.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int total in
  Alcotest.(check bool) "roughly balanced" true (frac > 0.45 && frac < 0.55)

let test_rng_float_range () =
  let rng = Rng.create 11L in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let x = Rng.int64 child and y = Rng.int64 parent in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal x y))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13L in
  let xs = List.init 20 Fun.id in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_rng_pick_arr_matches_pick () =
  (* pick_arr must consume the stream exactly like pick on the same data *)
  let a = Rng.create 77L and b = Rng.create 77L in
  let xs = List.init 23 Fun.id in
  let arr = Array.of_list xs in
  for _ = 1 to 200 do
    Alcotest.(check int) "same element" (Rng.pick a xs) (Rng.pick_arr b arr)
  done

let test_rng_int_unbiased_bounds () =
  let rng = Rng.create 31L in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let x = Rng.int_unbiased rng bound in
        Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
      done)
    [ 1; 2; 7; 17; 1 lsl 30; max_int ]

let test_rng_int_unbiased_uniform () =
  (* 3 buckets, 30k draws: each bucket within 5% of a third *)
  let rng = Rng.create 5L in
  let counts = Array.make 3 0 in
  let total = 30_000 in
  for _ = 1 to total do
    let k = Rng.int_unbiased rng 3 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int total in
      Alcotest.(check bool) "roughly a third" true (frac > 0.30 && frac < 0.37))
    counts

let test_min_heap () =
  let module H = Bca_util.Min_heap in
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  List.iter (H.push h) [ 5; 1; 9; 3; 7; 0; 8; 2; 6; 4 ];
  Alcotest.(check int) "length" 10 (H.length h);
  Alcotest.(check (option int)) "peek" (Some 0) (H.peek_min h);
  let drained = List.init 10 (fun _ -> Option.get (H.pop_min h)) in
  Alcotest.(check (list int)) "sorted drain" (List.init 10 Fun.id) drained;
  Alcotest.(check (option int)) "drained" None (H.pop_min h)

let heap_model =
  QCheck2.Test.make ~count:300 ~name:"min-heap drains sorted"
    QCheck2.Gen.(list (int_bound 1000))
    (fun xs ->
      let module H = Bca_util.Min_heap in
      let h = H.create ~capacity:1 () in
      List.iter (H.push h) xs;
      let rec drain acc = match H.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

let test_value_negate () =
  Alcotest.(check bool) "negate 0" true (Value.equal (Value.negate Value.V0) Value.V1);
  Alcotest.(check bool) "negate 1" true (Value.equal (Value.negate Value.V1) Value.V0);
  List.iter
    (fun v ->
      Alcotest.(check bool) "involution" true (Value.equal (Value.negate (Value.negate v)) v))
    Value.both

let test_value_bool_roundtrip () =
  List.iter
    (fun b -> Alcotest.(check bool) "roundtrip" b Value.(to_bool (of_bool b)))
    [ true; false ]

let test_quorum_add_first () =
  let q = Quorum.create () in
  Alcotest.(check bool) "first counts" true (Quorum.add_first q ~pid:1 "a");
  Alcotest.(check bool) "second from same sender ignored" false (Quorum.add_first q ~pid:1 "b");
  Alcotest.(check int) "count a" 1 (Quorum.count q "a");
  Alcotest.(check int) "count b" 0 (Quorum.count q "b");
  Alcotest.(check int) "senders" 1 (Quorum.senders q)

let test_quorum_add_value () =
  let q = Quorum.create () in
  Alcotest.(check bool) "first" true (Quorum.add_value q ~pid:1 "a");
  Alcotest.(check bool) "same pair ignored" false (Quorum.add_value q ~pid:1 "a");
  Alcotest.(check bool) "new value same sender counts" true (Quorum.add_value q ~pid:1 "b");
  Alcotest.(check int) "count a" 1 (Quorum.count q "a");
  Alcotest.(check int) "count b" 1 (Quorum.count q "b");
  Alcotest.(check int) "one sender" 1 (Quorum.senders q)

let test_quorum_all_equal () =
  let q = Quorum.create () in
  Alcotest.(check bool) "empty" true (Quorum.all_equal q = None);
  ignore (Quorum.add_first q ~pid:1 "x" : bool);
  ignore (Quorum.add_first q ~pid:2 "x" : bool);
  Alcotest.(check bool) "all x" true (Quorum.all_equal q = Some "x");
  ignore (Quorum.add_first q ~pid:3 "y" : bool);
  Alcotest.(check bool) "mixed" true (Quorum.all_equal q = None)

let test_quorum_count_if () =
  let q = Quorum.create () in
  ignore (Quorum.add_first q ~pid:1 3 : bool);
  ignore (Quorum.add_first q ~pid:2 5 : bool);
  ignore (Quorum.add_first q ~pid:3 4 : bool);
  Alcotest.(check int) "odd senders" 2 (Quorum.count_if q (fun v -> v mod 2 = 1))

let test_quorum_senders_of () =
  let q = Quorum.create () in
  ignore (Quorum.add_first q ~pid:4 "v" : bool);
  ignore (Quorum.add_first q ~pid:2 "v" : bool);
  ignore (Quorum.add_first q ~pid:9 "w" : bool);
  Alcotest.(check (list int)) "senders of v" [ 2; 4 ]
    (List.sort compare (Quorum.senders_of q "v"))

let quorum_model =
  (* add_first against a reference association-list model *)
  QCheck2.Test.make ~count:500 ~name:"quorum add_first matches model"
    QCheck2.Gen.(list (pair (int_bound 8) (int_bound 3)))
    (fun ops ->
      let q = Quorum.create () in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (pid, v) ->
          let counted = Quorum.add_first q ~pid v in
          let expect = not (Hashtbl.mem model pid) in
          if expect then Hashtbl.replace model pid v;
          if counted <> expect then QCheck2.Test.fail_report "add_first mismatch")
        ops;
      List.for_all
        (fun v ->
          Quorum.count q v
          = Hashtbl.fold (fun _ v' acc -> if v = v' then acc + 1 else acc) model 0)
        [ 0; 1; 2; 3 ])

(* The Hashtbl-and-association-list [Quorum] that the pid-indexed one
   replaced, kept as the reference it must agree with. *)
module Ref_quorum = struct
  type 'v t = { tbl : (int, 'v list) Hashtbl.t; mutable tallies : ('v * int ref) list }

  let create () = { tbl = Hashtbl.create 16; tallies = [] }
  let copy t = { tbl = Hashtbl.copy t.tbl; tallies = List.map (fun (v, r) -> (v, ref !r)) t.tallies }

  let bump t v =
    match List.assoc_opt v t.tallies with
    | Some r -> incr r
    | None -> t.tallies <- (v, ref 1) :: t.tallies

  let add_first t ~pid v =
    if Hashtbl.mem t.tbl pid then false
    else begin
      Hashtbl.replace t.tbl pid [ v ];
      bump t v;
      true
    end

  let add_value t ~pid v =
    match Hashtbl.find_opt t.tbl pid with
    | None ->
      Hashtbl.replace t.tbl pid [ v ];
      bump t v;
      true
    | Some vs ->
      if List.mem v vs then false
      else begin
        Hashtbl.replace t.tbl pid (v :: vs);
        bump t v;
        true
      end

  let count t v = match List.assoc_opt v t.tallies with Some r -> !r | None -> 0
  let count_if t p = Hashtbl.fold (fun _ vs acc -> if List.exists p vs then acc + 1 else acc) t.tbl 0
  let senders t = Hashtbl.length t.tbl
  let values t = List.map fst t.tallies
  let all_equal t = match t.tallies with [ (v, _) ] -> Some v | _ -> None
  let bindings t = List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [])

  let senders_of t v =
    List.filter_map (fun (pid, vs) -> if List.mem v vs then Some pid else None) (bindings t)

  let mem_sender t ~pid = Hashtbl.mem t.tbl pid
  let entries t = List.concat_map (fun (pid, vs) -> List.map (fun v -> (pid, v)) vs) (bindings t)
end

(* Values of both shapes: constant constructors (immediates) and [Box k],
   built fresh per message so equal boxes are distinct blocks. *)
type qv = A | B | Box of int

let qv_gen = QCheck2.Gen.(oneof [ oneofl [ A; B ]; map (fun k -> Box (k + 0)) (int_bound 1) ])
let qv_all = [ A; B; Box 0; Box 1 ]

type qop = { first : bool; pid : int; v : qv }

(* pids in [-2, n + 3], since an injected envelope may carry an
   out-of-band source, plus now and then one past the slot array's cap *)
let qops_gen =
  QCheck2.Gen.(
    int_range 1 13 >>= fun n ->
    let pid = frequency [ (12, int_range (-2) (n + 3)); (1, oneofl [ 255; 256; 1000 ]) ] in
    let op = map3 (fun first pid v -> { first; pid; v }) bool pid qv_gen in
    pair (list_size (int_bound 60) op) (list_size (int_bound 20) op) >|= fun ops -> (n, ops))

let qop_print (n, (ops, more)) =
  let one { first; pid; v } =
    Printf.sprintf "%s %d %s"
      (if first then "first" else "value")
      pid
      (match v with A -> "A" | B -> "B" | Box k -> Printf.sprintf "Box %d" k)
  in
  Printf.sprintf "n=%d [%s] then [%s]" n (String.concat "; " (List.map one ops))
    (String.concat "; " (List.map one more))

(* Every observation the interface offers, as one comparable value. *)
let quorum_view ~n ~count ~count_if ~senders ~mem_sender ~values ~all_equal ~senders_of ~entries =
  ( List.map count qv_all,
    List.map count_if [ (fun v -> v = A); (function Box _ -> true | A | B -> false) ],
    senders,
    List.map (fun pid -> mem_sender pid) (List.init (n + 6) (fun i -> i - 2) @ [ 255; 256; 1000 ]),
    (values, all_equal),
    List.map senders_of qv_all,
    entries )

let view_of q ~n =
  quorum_view ~n ~count:(Quorum.count q) ~count_if:(Quorum.count_if q) ~senders:(Quorum.senders q)
    ~mem_sender:(fun pid -> Quorum.mem_sender q ~pid)
    ~values:(Quorum.values q) ~all_equal:(Quorum.all_equal q) ~senders_of:(Quorum.senders_of q)
    ~entries:(Quorum.entries q)

let ref_view_of r ~n =
  quorum_view ~n ~count:(Ref_quorum.count r) ~count_if:(Ref_quorum.count_if r)
    ~senders:(Ref_quorum.senders r)
    ~mem_sender:(fun pid -> Ref_quorum.mem_sender r ~pid)
    ~values:(Ref_quorum.values r) ~all_equal:(Ref_quorum.all_equal r)
    ~senders_of:(Ref_quorum.senders_of r) ~entries:(Ref_quorum.entries r)

let quorum_reference_model =
  QCheck2.Test.make ~count:1000 ~name:"quorum matches the Hashtbl reference" ~print:qop_print
    qops_gen
    (fun (n, (ops, more)) ->
      let q = Quorum.create () and r = Ref_quorum.create () in
      let apply q r { first; pid; v } =
        let got, want =
          if first then (Quorum.add_first q ~pid v, Ref_quorum.add_first r ~pid v)
          else (Quorum.add_value q ~pid v, Ref_quorum.add_value r ~pid v)
        in
        if got <> want then QCheck2.Test.fail_reportf "add returned %b, reference %b" got want
      in
      List.iter (apply q r) ops;
      (* a snapshot must not see later additions, nor leak its own *)
      let qc = Quorum.copy q and rc = Ref_quorum.copy r in
      let snapshot = view_of qc ~n in
      List.iter (apply q r) more;
      if view_of qc ~n <> snapshot then QCheck2.Test.fail_report "copy saw the original change";
      let after = view_of q ~n in
      List.iter (apply qc rc) more;
      if view_of q ~n <> after then QCheck2.Test.fail_report "original saw the copy change";
      view_of q ~n = ref_view_of r ~n && view_of qc ~n = ref_view_of rc ~n)

let test_summary_mean () =
  let s = Summary.of_floats [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Summary.max;
  Alcotest.(check int) "runs" 4 s.Summary.runs

let test_summary_stddev () =
  let s = Summary.of_floats [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  (* Bessel-corrected sample stddev of this classic set is ~2.138 *)
  Alcotest.(check bool) "stddev" true (abs_float (s.Summary.stddev -. 2.138) < 0.01)

let test_summary_within () =
  let s = Summary.of_ints [ 7; 7; 7 ] in
  Alcotest.(check bool) "within" true (Summary.within s ~expected:7.0 ~tol:0.1);
  Alcotest.(check bool) "not within" false (Summary.within s ~expected:8.0 ~tol:0.5)

let test_histogram () =
  let h = Bca_util.Histogram.of_floats [ 5.0; 5.0; 7.0; 9.0; 5.0 ] in
  Alcotest.(check int) "mode" 5 (Bca_util.Histogram.mode h);
  Alcotest.(check int) "median" 5 (Bca_util.Histogram.percentile h 0.5);
  Alcotest.(check int) "p99" 9 (Bca_util.Histogram.percentile h 0.99);
  let rendered = Format.asprintf "%a" Bca_util.Histogram.pp h in
  Alcotest.(check bool) "renders three buckets" true
    (List.length (String.split_on_char '\n' rendered) >= 3)

let test_tablefmt_shape () =
  let out = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "raises on ragged rows" true
    (try
       ignore (Tablefmt.render ~header:[ "a" ] [ [ "1"; "2" ] ] : string);
       false
     with Invalid_argument _ -> true)

(* The escaper's bytes are part of the WAL format (trace events embed
   them), so every case is pinned. *)
let test_json_escape () =
  let esc s =
    let buf = Buffer.create 16 in
    Bca_util.Json.escape buf s;
    Buffer.contents buf
  in
  List.iter
    (fun (input, expected) -> Alcotest.(check string) (String.escaped input) expected (esc input))
    [ ("\"", "\\\"");
      ("\\", "\\\\");
      ("\n", "\\n");
      ("\t", "\\t");
      ("\r", "\\r");
      ("\x01", "\\u0001");
      ("plain ASCII: a-z 0-9 {}[]:,/", "plain ASCII: a-z 0-9 {}[]:,/") ]

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick_arr matches pick" `Quick test_rng_pick_arr_matches_pick;
          Alcotest.test_case "int_unbiased bounds" `Quick test_rng_int_unbiased_bounds;
          Alcotest.test_case "int_unbiased uniform" `Quick test_rng_int_unbiased_uniform ] );
      ( "min_heap",
        [ Alcotest.test_case "basic" `Quick test_min_heap;
          QCheck_alcotest.to_alcotest heap_model ] );
      ( "value",
        [ Alcotest.test_case "negate" `Quick test_value_negate;
          Alcotest.test_case "bool roundtrip" `Quick test_value_bool_roundtrip ] );
      ( "quorum",
        [ Alcotest.test_case "add_first" `Quick test_quorum_add_first;
          Alcotest.test_case "add_value" `Quick test_quorum_add_value;
          Alcotest.test_case "all_equal" `Quick test_quorum_all_equal;
          Alcotest.test_case "count_if" `Quick test_quorum_count_if;
          Alcotest.test_case "senders_of" `Quick test_quorum_senders_of;
          QCheck_alcotest.to_alcotest quorum_model;
          QCheck_alcotest.to_alcotest quorum_reference_model ] );
      ( "summary",
        [ Alcotest.test_case "mean/min/max" `Quick test_summary_mean;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "within" `Quick test_summary_within ] );
      ("histogram", [ Alcotest.test_case "mode/percentile" `Quick test_histogram ]);
      ("tablefmt", [ Alcotest.test_case "shape" `Quick test_tablefmt_shape ]);
      ("json", [ Alcotest.test_case "escape vectors" `Quick test_json_escape ]) ]
