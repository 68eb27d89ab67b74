open Relax_core
open Relax_objects
open Relax_replica
module Chaos = Relax_chaos

(* Experiment X-amnesia: the stable-storage assumption is load-bearing.

   Quorum consensus guarantees one-copy serializability on the premise
   that a site's log survives its crashes (crash-recovery, not amnesia).
   This experiment runs the same chaos workload against the preferred
   assignment (point top) twice: once under crash/recover churn (logs
   persist) and once under the amnesia nemesis (a crashed site loses its
   log).  With stable logs every completed history stays in L(PQ); with
   amnesia the intersection argument breaks — a recovered empty site can
   complete a later quorum that misses earlier operations — and a PQ
   violation appears.  A reproduction that could not exhibit this
   failure would not really be exercising the mechanism. *)

let default_config = { Chaos.Runner.default_config with requests = 25; seed = 41 }

let run_once ?(config = default_config) ~amnesia () =
  (* The only difference between the two regimes is the nemesis: the
     amnesia combinator wipes stable storage on every crash. *)
  let nemesis =
    (if amnesia then Chaos.Nemesis.amnesia else Chaos.Nemesis.crash_recover)
      ~crash_p:0.25 ~recover_p:0.5 ()
  in
  let top = Taxi.point ~n:config.sites "top" in
  let result =
    Chaos.Runner.run ~config ~client:(Chaos.Runner.Fixed top.assignment)
      ~respond:Choosers.pq_eta
      (Chaos.Runner.schedule config [ nemesis ])
  in
  ( result,
    Chaos.Oracle.check ~accepts:(Taxi.predicted_accepts top.cset)
      result.Chaos.Runner.history )

let pp_run ppf (amnesia, (result : Chaos.Runner.result), verdict) =
  Fmt.pf ppf "%-16s served %2d  %s"
    (if amnesia then "amnesia" else "crash-recovery")
    (List.length (List.filter Queue_ops.is_deq result.history))
    (match verdict with
    | Chaos.Oracle.Conforms -> "history within L(PQ)"
    | Chaos.Oracle.Violation { rejected_prefix; _ } ->
      (* the shortest rejected prefix ends at the violating operation *)
      let n = List.length rejected_prefix in
      Fmt.str "PQ VIOLATION at op %d, %a" n Op.pp
        (List.nth rejected_prefix (n - 1)))

(* With stable logs, every seed must stay in L(PQ); with amnesia, some
   seed in the sweep must exhibit a violation. *)
let run ?(config = default_config) ?(runs = 5) ppf () =
  Fmt.pf ppf
    "== The stable-storage assumption (preferred assignment, same faults) ==@\n";
  let sweep amnesia =
    List.init runs (fun i ->
        let r, v =
          run_once ~config:{ config with seed = config.seed + i } ~amnesia ()
        in
        (amnesia, r, v))
  in
  let stable = sweep false and wiped = sweep true in
  List.iteri
    (fun i (a, b) ->
      Fmt.pf ppf "seed %d: %a | %a@\n" (config.seed + i) pp_run a pp_run b)
    (List.combine stable wiped);
  let conforms (_, _, v) = Chaos.Oracle.conforms v in
  let stable_safe = List.for_all conforms stable in
  let amnesia_breaks = not (List.for_all conforms wiped) in
  Fmt.pf ppf "crash-recovery preserves the preferred behavior: %b@\n"
    stable_safe;
  Fmt.pf ppf "amnesia breaks it at some seed: %b@\n" amnesia_breaks;
  stable_safe && amnesia_breaks
