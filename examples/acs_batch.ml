(* HoneyBadger-style batching: the Section 1.2 application.

   Run with:  dune exec examples/acs_batch.exe

   Four replicas each propose a batch of transactions; the Asynchronous
   Common Subset (n reliable broadcasts + n instances of the paper's ABA)
   selects a common set of at least n - t batches, which every replica
   then executes in the same order.  One replica stays silent (crashed
   before proposing): the protocol excludes its slot and still delivers. *)

module Acs = Bca_rsm.Acs
module Types = Bca_core.Types
module Async = Bca_netsim.Async_exec
module Node = Bca_netsim.Node

let batches =
  [| "alice->bob:5;carol->dan:2"; "dan->alice:1"; "bob->carol:9;alice->dan:4"; "(silent)" |]

let () =
  let n = 4 in
  let cfg = Types.cfg ~n ~t:1 in
  let params = { Acs.cfg; coin_seed = 2026L } in
  let crashed = 3 in
  let states = Array.make n None in
  let exec =
    Async.create ~n ~make:(fun pid ->
        if pid = crashed then (Node.silent, [])
        else begin
          let st, init = Acs.create params ~me:pid ~proposal:batches.(pid) in
          states.(pid) <- Some st;
          (Acs.node st, List.map (fun m -> Node.Broadcast m) init)
        end)
  in
  let rng = Bca_util.Rng.create 4L in
  (match Async.run exec (Async.random_scheduler rng) with
  | `All_terminated -> Format.printf "ACS terminated (replica %d silent)@." crashed
  | _ -> Format.printf "ACS did not terminate?!@.");
  Array.iteri
    (fun pid st ->
      match st with
      | None -> Format.printf "replica %d: crashed@." pid
      | Some st ->
        (match Acs.output st with
        | Some slots ->
          Format.printf "replica %d executes %d batches:@." pid (List.length slots);
          List.iter (fun (j, b) -> Format.printf "  slot %d: %s@." j b) slots
        | None -> Format.printf "replica %d: no output@." pid))
    states
