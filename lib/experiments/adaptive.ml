open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica
module Chaos = Relax_chaos
module Degrade = Relax_degrade

(* Experiment X-adapt: the combined environment+object automaton of
   Section 2.3, realized end to end on the live degradation controller
   (lib/degrade) — one controlled-client chaos run (lib/chaos) under
   site crash/recover churn.

   An adaptive taxi-dispatch client runs at the top of the lattice while
   the monitored constraints hold — every up site can assemble the
   preferred majority quorums — and degrades to the bottom ("any
   available site") otherwise.  The controller makes the moves: a
   fail-fast probe before each operation (plus periodic sampling and a
   retry-budget circuit breaker) degrades the moment quorums become
   unobtainable, and the restore gate re-strengthens only after adaptive
   anti-entropy has reconverged the logs.  The mode changes are emitted
   as environment events interleaved with the operations:

     Degrade()/Ok()   subsequent operations run at the bottom
     Restore()/Ok()   propagation caught up; the preferred constraints
                      hold again

   Restore fires only after reconvergence: the paper's constraints are
   about intersection with *past* final quorums, so a majority being up
   again does not by itself restore Q2 — degraded writes must first
   propagate to a majority.

   The event+operation history is then replayed through the combined
   automaton <2^C x STATE, (c0,s0), EVENT ∪ OP, delta>, and judged
   incrementally by the online conformance oracle as it is produced;
   the two verdicts must agree.  The lattice's two automata share the
   present/absent state space of the MPQ (so the object state survives
   mode changes):

     preferred:  Enq inserts into present; Deq transfers best(present)
                 (the priority queue);
     degraded:   Enq inserts into present; Deq transfers any present item
                 or replays any absent one (language-equal to DegenPQ,
                 but tracking which requests are outstanding). *)

let degrade_event = Op.make "Degrade"
let restore_event = Op.make "Restore"

(* Preferred behavior on the shared state: exactly the priority queue. *)
let preferred_tracking =
  Automaton.make ~name:"PQ/tracking" ~init:Mpq.init ~equal:Mpq.equal
    ~hash:Mpq.hash ~pp_state:Mpq.pp (fun (s : Mpq.state) p ->
      match Queue_ops.element p with
      | None -> []
      | Some e ->
        if Queue_ops.is_enq p then
          [ { s with present = Multiset.ins s.present e } ]
        else if Queue_ops.is_deq p then
          match Multiset.best s.present with
          | Some b when Value.equal b e ->
            [
              {
                Mpq.present = Multiset.del s.present e;
                absent = Multiset.ins s.absent e;
              };
            ]
          | Some _ | None -> []
        else [])

(* Degraded behavior on the shared state: serve anything ever enqueued. *)
let degraded_tracking =
  Automaton.make ~name:"Degen/tracking" ~init:Mpq.init ~equal:Mpq.equal
    ~hash:Mpq.hash ~pp_state:Mpq.pp (fun (s : Mpq.state) p ->
      match Queue_ops.element p with
      | None -> []
      | Some e ->
        if Queue_ops.is_enq p then
          [ { s with present = Multiset.ins s.present e } ]
        else if Queue_ops.is_deq p then
          (if Multiset.mem s.present e then
             [
               {
                 Mpq.present = Multiset.del s.present e;
                 absent = Multiset.ins s.absent e;
               };
             ]
           else [])
          @ (if Multiset.mem s.absent e then [ s ] else [])
        else [])

let adaptive_lattice =
  Relaxation.make ~name:"adaptive-PQ" ~constraints:[ "Q1"; "Q2" ]
    ~in_domain:(fun c -> Cset.is_empty c || Cset.cardinal c = 2)
    (fun c ->
      if Cset.cardinal c = 2 then preferred_tracking else degraded_tracking)

let environment =
  Environment.of_event_names ~name:"quorum-weather"
    ~init:(Cset.of_list [ "Q1"; "Q2" ])
    ~events:[ "Degrade"; "Restore" ]
    (fun c p ->
      match Op.name p with
      | "Degrade" -> Cset.empty
      | "Restore" -> Cset.of_list [ "Q1"; "Q2" ]
      | _ -> c)

let combined =
  Environment.combine environment adaptive_lattice ~is_operation:(fun p ->
      Queue_ops.is_enq p || Queue_ops.is_deq p)

(* The degraded assignment: "any available site" thresholds — enqueue
   anywhere, dequeue from whatever single log is reachable. *)
let relaxed_assignment ~n =
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = 0; final = 1 });
      (Queue_ops.deq_name, { Assignment.initial = 1; final = 1 });
    ]

(* The preferred assignment: majority quorums for both operations, so
   every pair of quorums intersects (Q1: maj + maj > n, Q2: likewise)
   and strict-mode reads cannot miss strict-mode writes. *)
let preferred_assignment ~n =
  let maj = (n / 2) + 1 in
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = maj; final = maj });
      (Queue_ops.deq_name, { Assignment.initial = maj; final = maj });
    ]

(* The controller-driven client over the two-point lattice — the same
   client the chaos "adaptive" scenario sweeps. *)
let client ~sites =
  Chaos.Runner.Controlled
    {
      preferred = preferred_assignment ~n:sites;
      degraded = relaxed_assignment ~n:sites;
      degrade = degrade_event;
      restore = restore_event;
      controller = None;
    }

let default_config = { Chaos.Runner.default_config with requests = 30; seed = 31 }

(* Operations served degraded: those between a Degrade event and the
   next Restore. *)
let degraded_ops h =
  fst
    (List.fold_left
       (fun (n, degraded) p ->
         if Op.equal p degrade_event then (n, true)
         else if Op.equal p restore_event then (n, false)
         else ((if degraded then n + 1 else n), degraded))
       (0, false) h)

let run_once ?(config = default_config) () =
  let result =
    Chaos.Runner.run ~config
      ~online:(fun () -> Degrade.Online.of_automaton combined)
      ~client:(client ~sites:config.sites)
      ~respond:Choosers.pq_eta
      (Chaos.Runner.schedule config [ Chaos.Nemesis.crash_recover () ])
  in
  ( result,
    Chaos.Oracle.check ~accepts:(Automaton.accepts combined)
      result.Chaos.Runner.history )

let run ?config ppf () =
  let result, verdict = run_once ?config () in
  let accepted = Chaos.Oracle.conforms verdict in
  let online_agrees = Option.is_none result.online_violation = accepted in
  let degraded = degraded_ops result.history in
  Fmt.pf ppf
    "== Section 2.3: adaptive replica vs the combined automaton ==@\n";
  Fmt.pf ppf "%d operations (%d served degraded, %d mode switches): %s, %s@\n"
    result.completed degraded result.mode_switches
    (if accepted then "accepted by the combined automaton"
     else "REJECTED by the combined automaton")
    (if online_agrees then "online oracle agrees"
     else "ONLINE ORACLE DISAGREES");
  (match result.transitions with
  | [] -> ()
  | trs ->
    Fmt.pf ppf "controller timeline:@\n";
    List.iter
      (fun tr -> Fmt.pf ppf "  %a@\n" Degrade.Controller.pp_transition tr)
      trs);
  (match verdict with
  | Chaos.Oracle.Conforms -> ()
  | Chaos.Oracle.Violation { rejected_prefix; _ } ->
    Fmt.pf ppf "first rejected prefix:@\n  %a@\n" History.pp rejected_prefix);
  let interesting = result.mode_switches >= 2 && degraded > 0 in
  Fmt.pf ppf "run exercised both modes: %b@\n" interesting;
  accepted && online_agrees && interesting
