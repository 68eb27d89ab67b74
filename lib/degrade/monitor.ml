(* Online constraint monitors: pluggable probes evaluating a constraint
   of C against observable runtime state.

   A monitor owns no policy: it reports a health sample (a scalar plus a
   verdict against its own threshold) when asked, and the controller
   decides what a streak of unhealthy samples means.  The built-in
   probes cover the three observables the degradation controller needs:

     - quorum reachability: can every live client site still muster the
       initial and final quorums of the assignment realizing the
       constraint?  (the paper's Q1/Q2, evaluated against the live
       partition/crash state);
     - log convergence: how many live sites still lag the global log —
       the anti-entropy debt that gates re-strengthening;
     - retry pressure: how many retries and quorum failures accumulated
       since the previous sample — the timeout budget's derivative.

   Probes read the live network and replica; they never mutate them. *)

open Relax_quorum
open Relax_replica

type sample = { healthy : bool; value : float }

type t = { name : string; describe : string; sample : unit -> sample }

let make ~name ?describe sample =
  { name; describe = Option.value describe ~default:name; sample }

let name t = t.name
let describe t = t.describe
let sample t = t.sample ()

let pp_sample ppf s =
  Fmt.pf ppf "%s(%.2f)" (if s.healthy then "healthy" else "UNHEALTHY") s.value

(* The anti-entropy lag: how many up sites' logs differ from the union
   of all logs.  0 means every live site already knows everything any
   site knows (the [synced] predicate the adaptive experiments used).
   The replica memoizes it across the monitors that read it. *)
let lag = Replica.lag

(* Fraction of up sites that can currently assemble both quorums of
   every operation of [assignment], counting only sites they can reach
   (crashes and partition cells both shrink the reachable set).  The
   constraint realized by [assignment] is live for a client exactly when
   its site clears every threshold. *)
let reachability_fraction net assignment =
  let n = Relax_sim.Network.sites net in
  let up = Relax_sim.Network.up_sites net in
  match up with
  | [] -> 0.0
  | _ ->
    let ops = Assignment.operations assignment in
    let serviceable c =
      let reach =
        List.length
          (List.filter
             (fun s -> Relax_sim.Network.reachable net ~src:c ~dst:s)
             (List.init n Fun.id))
      in
      List.for_all
        (fun op ->
          reach >= Assignment.initial_threshold assignment op
          && reach >= Assignment.final_threshold assignment op)
        ops
    in
    float_of_int (List.length (List.filter serviceable up))
    /. float_of_int (List.length up)

let quorum_reachability ~name ?(healthy_above = 1.0) ~net ~assignment () =
  make ~name
    ~describe:
      (Fmt.str "%s: every up site can assemble its quorums (>= %.2f)" name
         healthy_above)
    (fun () ->
      let value = reachability_fraction net assignment in
      { healthy = value >= healthy_above; value })

let convergence ~name ?(max_lag = 0) ~replica () =
  make ~name
    ~describe:(Fmt.str "%s: at most %d up sites lag the global log" name max_lag)
    (fun () ->
      let l = lag replica in
      { healthy = l <= max_lag; value = float_of_int l })

(* Retries plus quorum failures accumulated since the previous sample.
   The closure carries the baseline, so construct a fresh monitor per
   run (the nemesis-combinator convention). *)
let retry_pressure ~name ?(budget = 3) ~replica () =
  let seen = ref 0 in
  make ~name
    ~describe:(Fmt.str "%s: under %d retries+failures per sample window" name budget)
    (fun () ->
      let total = Replica.retries_total replica + Replica.unavailable_count replica in
      let delta = total - !seen in
      seen := total;
      { healthy = delta < budget; value = float_of_int delta })

(* Recovery settling: a restarted-from-journal site that has not yet
   absorbed a post-recovery transfer is running on its journal's view of
   the world; restoring a stronger lattice point before anti-entropy
   re-joins it would trust a log that may be arbitrarily stale. *)
let recovery_settled ~name ?(max_recovering = 0) ~replica () =
  make ~name
    ~describe:
      (Fmt.str "%s: at most %d sites recovering from their journals" name
         max_recovering)
    (fun () ->
      let n = Replica.recovering_count replica in
      { healthy = n <= max_recovering; value = float_of_int n })
