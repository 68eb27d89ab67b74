open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica
module Chaos = Relax_chaos

(* Experiment X-deg: the taxicab company of Section 3.3, run on the
   message-passing replica runtime with injected site crashes — each
   lattice point is one chaos run (lib/chaos) of its voting assignment.

   The priority queue is replicated at [sites] sites; dispatchers enqueue
   prioritized requests and idle drivers dequeue the highest-priority
   pending one.  Four quorum assignments — realizing {Q1,Q2}, {Q1}, {Q2}
   and {} — are compared under the same fault process.  For each lattice
   point we measure availability and latency (the paper's "cost" column)
   and the anomalies of the relaxed behaviors (duplicate services,
   out-of-order services), and verify that the completed history is
   accepted by the behavior the lattice predicts. *)

type point = {
  name : string;
  label : string;
  cset : Cset.t;
  assignment : Assignment.t;
}

(* Voting assignments over [n] sites realizing each constraint set.  Enq
   always writes where it can (final threshold f_e) and Deq reads i_d and
   writes f_d; Q1 forces i_d + f_e > n, Q2 forces i_d + f_d > n.  The
   relaxed assignments use threshold 1 ("any available site"). *)
let points ~n =
  let maj = (n / 2) + 1 in
  let mk name label cset enq_final deq_init deq_final =
    {
      name;
      label;
      cset;
      assignment =
        Assignment.make ~n
          [
            (Queue_ops.enq_name, { Assignment.initial = 0; final = enq_final });
            (Queue_ops.deq_name,
             { Assignment.initial = deq_init; final = deq_final });
          ];
    }
  in
  [
    mk "top" "{Q1,Q2} (preferred: PQ)"
      (Cset.of_list [ "Q1"; "Q2" ])
      maj maj maj;
    mk "q1" "{Q1} (MPQ: duplicates possible)" (Cset.singleton "Q1") maj maj 1;
    mk "q2" "{Q2} (OPQ: reordering possible)" (Cset.singleton "Q2") 1 maj maj;
    mk "bottom" "{} (DegenPQ)" Cset.empty 1 1 1;
  ]

let point ~n name = List.find (fun p -> p.name = name) (points ~n)
let point_names = List.map (fun p -> p.name) (points ~n:1)

(* Anomaly metrics on the completed history. *)
let count_duplicates (h : History.t) =
  let deqs = List.filter Queue_ops.is_deq h in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match Queue_ops.element p with
      | Some e ->
        let k = Value.to_string e in
        Hashtbl.replace tally k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
      | None -> ())
    deqs;
  Hashtbl.fold (fun _ n acc -> acc + max 0 (n - 1)) tally 0

(* A Deq is an inversion when some request of strictly higher priority was
   pending (enqueued, never yet dequeued) at that instant. *)
let count_inversions (h : History.t) =
  let rec go pending served inversions = function
    | [] -> inversions
    | p :: rest -> (
      match Queue_ops.element p with
      | None -> go pending served inversions rest
      | Some e ->
        if Queue_ops.is_enq p then go (Multiset.ins pending e) served inversions rest
        else
          let better_pending = not (Multiset.all_less_than (Multiset.del pending e) e)
          and was_pending = Multiset.mem pending e in
          let inversions =
            if was_pending && better_pending then inversions + 1 else inversions
          in
          let pending = Multiset.del pending e in
          go pending (Multiset.ins served e) inversions rest)
  in
  go Multiset.empty Multiset.empty 0 h

(* The predicted behavior differs in state type per lattice point, so it
   is exposed as an acceptance predicate. *)
let predicted_accepts cset h =
  if Cset.mem "Q1" cset && Cset.mem "Q2" cset then
    Automaton.accepts Pqueue.automaton h
  else if Cset.mem "Q1" cset then Automaton.accepts Mpq.automaton h
  else if Cset.mem "Q2" cset then Automaton.accepts Opq.automaton h
  else Automaton.accepts Degen.automaton h

(* The same predicted behavior as a fresh incremental oracle (the state
   type differs per point, so each branch is monomorphic). *)
let predicted_online cset =
  let module O = Relax_degrade.Online in
  if Cset.mem "Q1" cset && Cset.mem "Q2" cset then
    O.of_automaton Pqueue.automaton
  else if Cset.mem "Q1" cset then O.of_automaton Mpq.automaton
  else if Cset.mem "Q2" cset then O.of_automaton Opq.automaton
  else O.of_automaton Degen.automaton

let default_config = { Chaos.Runner.default_config with requests = 40; seed = 2 }

type outcome = {
  label : string;
  requests : int;
  attempted : int;
  served : int;
  duplicates : int;
  inversions : int;
  mean_latency : float;
  history_ok : bool;
  result : Chaos.Runner.result;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-34s served %3d/%3d  unavailable %3d  empty %3d  dup %2d  inversions %2d  lat %6.1f  %s"
    o.label o.served o.requests o.result.unavailable o.result.empty_views
    o.duplicates o.inversions o.mean_latency
    (if o.history_ok then "history=predicted" else "HISTORY MISMATCH")

(* One lattice point under the taxi fault process: a fixed-client chaos
   run of [point]'s assignment under site crash/recover churn (the
   nemesis's own rates by default), with the predicted behavior as its
   online oracle.  The config fixes the workload and the fault schedule,
   so every point of one config sees the same faults.  Served requests
   are the completed Deqs; the mean latency is the replica's. *)
let run_point ?(config = default_config) ?crash_p ?recover_p point =
  let result =
    Chaos.Runner.run ~config
      ~online:(fun () -> predicted_online point.cset)
      ~client:(Chaos.Runner.Fixed point.assignment)
      ~respond:Choosers.pq_eta
      (Chaos.Runner.schedule config
         [ Chaos.Nemesis.crash_recover ?crash_p ?recover_p () ])
  in
  let history = result.history in
  {
    label = point.label;
    requests = config.requests;
    attempted = result.completed + result.unavailable + result.empty_views;
    served = List.length (List.filter Queue_ops.is_deq history);
    duplicates = count_duplicates history;
    inversions = count_inversions history;
    mean_latency =
      Option.value ~default:0.0
        (Relax_obs.Metrics.mean result.metrics "replica/latency");
    history_ok = predicted_accepts point.cset history;
    result;
  }

let run_all ?(config = default_config) () =
  List.map (run_point ~config) (points ~n:config.sites)

let run_body ?config ppf =
  let outcomes = run_all ?config () in
  List.iter (fun o -> Fmt.pf ppf "%a@\n" pp_outcome o) outcomes;
  List.for_all (fun o -> o.history_ok) outcomes

let claims ?config () =
  [
    Relax_claims.Claim.report ~id:"taxi/degradation" ~kind:Characterization
      ~paper:"Section 3.3 (taxicab example)"
      ~description:
        "each lattice point's completed history matches its predicted \
         behavior under injected crashes"
      ~detail:"replica runtime, 4 quorum assignments under one fault trace"
      (run_body ?config);
  ]

let group ?config () =
  {
    Relax_claims.Registry.gid = "taxi";
    title = "Section 3.3 taxi dispatch on the replica runtime";
    header =
      "== Section 3.3: taxi dispatch on the replica runtime (crashes \
       injected) ==\n";
    claims = claims ?config ();
  }

let run ?config ppf () = Relax_claims.Engine.run_print (group ?config ()) ppf
