open Relax_core
open Relax_objects
open Relax_replica

(* Experiment X-part: network partitions (the fault the paper names
   alongside crashes).

   Five sites split into a majority cell {0,1,2} and a minority cell
   {3,4}; clients are attached to sites on both sides.  During the
   partition:

     - at the preferred point, minority-side operations cannot assemble
       majority quorums and fail — availability is sacrificed, behavior
       is preserved;
     - at the fully relaxed point, both sides keep serving from their own
       cell and diverge — the same request can be dispatched on both
       sides of the partition;

   after healing and gossip, the merged history must still lie within
   the behavior the lattice point predicts (DegenPQ for the relaxed
   point, PQ for the preferred point). *)

type outcome = {
  label : string;
  minority_failures : int; (* minority-side ops refused during the split *)
  majority_failures : int;
  cross_partition_duplicates : int;
  history_ok : bool;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-34s minority-fail %2d  majority-fail %2d  cross-dup %2d  %s" o.label
    o.minority_failures o.majority_failures o.cross_partition_duplicates
    (if o.history_ok then "history=predicted" else "HISTORY MISMATCH")

let run_point ?(seed = 21) ?(timeout = 60.0) ?retries ?backoff
    (point : Taxi.point) =
  let engine = Relax_sim.Engine.create ~seed () in
  let net = Relax_sim.Network.create ~mean_latency:2.0 engine ~sites:5 in
  let replica =
    Replica.create ~timeout ?retries ?backoff engine net point.Taxi.assignment
      ~respond:Choosers.pq_eta
  in
  let run_one ~client_site inv =
    let result = ref None in
    Replica.execute replica ~client_site inv (fun r -> result := Some r);
    Relax_sim.Engine.run
      ~until:(Relax_sim.Engine.now engine +. 500.0)
      engine;
    !result
  in
  let completed = function
    | Some (Replica.Completed _) -> true
    | Some (Replica.Unavailable _) | None -> false
  in
  (* healthy phase: four requests spooled and gossiped everywhere *)
  List.iteri
    (fun i prio ->
      ignore
        (run_one ~client_site:(i mod 5)
           (Op.inv Queue_ops.enq_name ~args:[ Value.int prio ])))
    [ 10; 20; 30; 40 ];
  Replica.gossip replica;
  Relax_sim.Engine.run ~until:(Relax_sim.Engine.now engine +. 500.0) engine;
  (* partition: majority {0,1,2} vs minority {3,4} *)
  Relax_chaos.Fault.apply ~replica net
    (Relax_chaos.Fault.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
  let minority_failures = ref 0 and majority_failures = ref 0 in
  (* both sides try to dispatch the two best requests *)
  for _ = 1 to 2 do
    if not (completed (run_one ~client_site:3 (Op.inv Queue_ops.deq_name)))
    then incr minority_failures;
    if not (completed (run_one ~client_site:0 (Op.inv Queue_ops.deq_name)))
    then incr majority_failures
  done;
  (* heal and let the logs converge *)
  Relax_chaos.Fault.apply ~replica net Relax_chaos.Fault.Heal;
  for _ = 1 to 2 do
    Replica.gossip replica;
    Relax_sim.Engine.run ~until:(Relax_sim.Engine.now engine +. 500.0) engine
  done;
  let history = Replica.completed_history replica in
  {
    label = point.Taxi.label;
    minority_failures = !minority_failures;
    majority_failures = !majority_failures;
    cross_partition_duplicates = Taxi.count_duplicates history;
    history_ok = Taxi.predicted_accepts point.Taxi.cset history;
  }

let run ?seed ?timeout ?retries ?backoff ppf () =
  let preferred = Taxi.point ~n:5 "top"
  and relaxed = Taxi.point ~n:5 "bottom" in
  let o_pref = run_point ?seed ?timeout ?retries ?backoff preferred
  and o_rel = run_point ?seed ?timeout ?retries ?backoff relaxed in
  Fmt.pf ppf "== Network partition: majority {0,1,2} vs minority {3,4} ==@\n";
  Fmt.pf ppf "%a@\n%a@\n" pp_outcome o_pref pp_outcome o_rel;
  let consistent_choice =
    (* the preferred point refuses the minority side and shows no
       divergence; the relaxed point serves both sides and may diverge *)
    o_pref.minority_failures = 2
    && o_pref.cross_partition_duplicates = 0
    && o_rel.minority_failures = 0
    && o_rel.majority_failures = 0
  in
  Fmt.pf ppf
    "preferred sacrifices minority availability, relaxed serves both: %b@\n"
    consistent_choice;
  Fmt.pf ppf "relaxed side diverged (duplicates across the split): %b@\n"
    (o_rel.cross_partition_duplicates > 0);
  consistent_choice && o_pref.history_ok && o_rel.history_ok
