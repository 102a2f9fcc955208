(** Test harnesses: drive one (Graded) BCA instance cluster, or an
    agreement-stack cluster, under a seeded random asynchronous schedule
    with optional crash and Byzantine behaviour, and hand the per-party
    outcomes back for property checks. *)

module Value = Bca_util.Value
module Rng = Bca_util.Rng
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node

let value_gen = QCheck2.Gen.map Value.of_bool QCheck2.Gen.bool

let inputs_gen n = QCheck2.Gen.array_size (QCheck2.Gen.return n) value_gen

(** Cluster of bare BCA instances exchanging raw protocol messages. *)
module Bca (B : Bca_core.Bca_intf.BCA) = struct
  type outcome = {
    decisions : Types.cvalue option array;  (** None for crashed/Byz slots *)
    states : B.t option array;  (** honest instances *)
    exec_outcome : Async.outcome;
    depth : int;
  }

  let run ~params ~n ~inputs ?(crashes = []) ?(byz = []) ~seed () =
    let states : B.t option array = Array.make n None in
    let honest pid =
      (not (List.mem_assoc pid crashes)) && not (List.mem_assoc pid byz)
    in
    let make pid =
      match List.assoc_opt pid byz with
      | Some node -> (node, [])
      | None ->
        let inst = B.create (params ~me:pid) ~me:pid in
        states.(pid) <- Some inst;
        let init = B.start inst ~input:inputs.(pid) in
        let node =
          Node.make
            ~receive:(fun ~src m ->
              List.map (fun m -> Node.Broadcast m) (B.handle inst ~from:src m))
            ~terminated:(fun () -> B.decision inst <> None)
            ()
        in
        let node =
          match List.assoc_opt pid crashes with
          | Some after -> Bca_adversary.Faults.crash_after ~deliveries:after node
          | None -> node
        in
        (node, List.map (fun m -> Node.Broadcast m) init)
    in
    let exec = Async.create ~n ~make in
    let rng = Rng.create seed in
    let exec_outcome = Async.run exec (Async.random_scheduler rng) in
    let decisions =
      Array.init n (fun pid ->
          if honest pid then Option.bind states.(pid) B.decision else None)
    in
    let states =
      Array.init n (fun pid -> if honest pid then states.(pid) else None)
    in
    { decisions; states; exec_outcome; depth = Async.max_depth exec }
end

(** Cluster of bare BCA instances on the lockstep executor: used by
    round-complexity checks, where the unit must be protocol phases. *)
module Bca_lockstep (B : Bca_core.Bca_intf.BCA) = struct
  module Lockstep = Bca_netsim.Lockstep

  let run ~params ~n ~inputs () =
    let states : B.t option array = Array.make n None in
    let make pid =
      let inst = B.create (params ~me:pid) ~me:pid in
      states.(pid) <- Some inst;
      let init = B.start inst ~input:inputs.(pid) in
      let node =
        Node.make
          ~receive:(fun ~src m ->
            List.map (fun m -> Node.Broadcast m) (B.handle inst ~from:src m))
          ~terminated:(fun () -> B.decision inst <> None)
          ()
      in
      (node, List.map (fun m -> Node.Broadcast m) init)
    in
    let res = Lockstep.run ~n ~honest:(fun _ -> true) ~make () in
    let decisions = Array.map (fun st -> Option.bind st B.decision) states in
    (res, decisions)
end

(** Same for graded protocols. *)
module Gbca (G : Bca_core.Bca_intf.GBCA) = struct
  type outcome = {
    decisions : Types.gdecision option array;
    states : G.t option array;
    exec_outcome : Async.outcome;
    depth : int;
  }

  let run ~params ~n ~inputs ?(crashes = []) ?(byz = []) ~seed () =
    let states : G.t option array = Array.make n None in
    let honest pid =
      (not (List.mem_assoc pid crashes)) && not (List.mem_assoc pid byz)
    in
    let make pid =
      match List.assoc_opt pid byz with
      | Some node -> (node, [])
      | None ->
        let inst = G.create (params ~me:pid) ~me:pid in
        states.(pid) <- Some inst;
        let init = G.start inst ~input:inputs.(pid) in
        let node =
          Node.make
            ~receive:(fun ~src m ->
              List.map (fun m -> Node.Broadcast m) (G.handle inst ~from:src m))
            ~terminated:(fun () -> G.decision inst <> None)
            ()
        in
        let node =
          match List.assoc_opt pid crashes with
          | Some after -> Bca_adversary.Faults.crash_after ~deliveries:after node
          | None -> node
        in
        (node, List.map (fun m -> Node.Broadcast m) init)
    in
    let exec = Async.create ~n ~make in
    let rng = Rng.create seed in
    let exec_outcome = Async.run exec (Async.random_scheduler rng) in
    let decisions =
      Array.init n (fun pid ->
          if honest pid then Option.bind states.(pid) G.decision else None)
    in
    let states =
      Array.init n (fun pid -> if honest pid then states.(pid) else None)
    in
    { decisions; states; exec_outcome; depth = Async.max_depth exec }
end

(* A random scheduler that never delivers to [pid]: a run under it stops
   once only envelopes to [pid] are left.  Cuts one party off while the
   others run, e.g. until all of them have terminated. *)
let random_avoiding rng ~pid =
  Async.indexed_scheduler (fun ~delivered:_ exec ->
      match
        List.filter
          (fun i -> (Async.pool_get exec i).Async.dst <> pid)
          (List.init (Async.pool_size exec) Fun.id)
      with
      | [] -> None
      | slots -> Some (List.nth slots (Rng.int rng (List.length slots))))

(* ------------------------------------------------------------------ *)
(* Shared assertions                                                    *)
(* ------------------------------------------------------------------ *)

let check_crusader_agreement decisions =
  let non_bot =
    Array.to_list decisions
    |> List.filter_map (function Some (Types.Val v) -> Some v | _ -> None)
  in
  match non_bot with
  | [] -> true
  | v :: rest -> List.for_all (Value.equal v) rest

let check_graded_agreement decisions =
  let ds = Array.to_list decisions |> List.filter_map Fun.id in
  let ok_pair a b =
    match (a, b) with
    | (Types.G2 v | Types.G1 v), (Types.G2 w | Types.G1 w) -> Value.equal v w
    | Types.G2 _, Types.G0 | Types.G0, Types.G2 _ -> false
    | Types.G0, _ | _, Types.G0 -> true
  in
  List.for_all (fun a -> List.for_all (fun b -> ok_pair a b) ds) ds

let all_same_inputs inputs =
  Array.for_all (Value.equal inputs.(0)) inputs
