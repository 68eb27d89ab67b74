open Relax_core
open Relax_replica
module Chaos = Relax_chaos

(* Experiment X-chaos: searched conformance over the relaxation lattice.

   The chaos runner (lib/chaos) is scenario-agnostic; this module wires
   it to the paper's objects.  A scenario is a lattice point of the
   replicated priority queue — the four fixed points of X-deg, plus the
   adaptive client of X-adapt whose histories (with their interleaved
   Degrade/Restore events) are judged by the Section 2.3 combined
   automaton — together with the acceptance predicate phi(C) predicts
   for it.

   [sweep] is the engine behind `rlx chaos run`: [runs] seeded runs fan
   out over domains (order-preserving, so the report is identical at any
   --jobs), each generating a nemesis schedule, running it, and checking
   the completed history against the scenario's language.  A violation
   is shrunk with ddmin to a 1-minimal replayable trace. *)

type scenario = {
  name : string;
  description : string;
  lattice : string; (* rendered constraint set, or "adaptive" *)
  durable : bool; (* sites keep write-ahead journals; Crash = power loss *)
  client : sites:int -> Chaos.Runner.client;
  accepts : History.t -> bool;
  online : unit -> Relax_degrade.Online.t;
      (* fresh incremental oracle over the same predicted behavior *)
}

(* A scenario running the X-deg lattice point named [point], judged
   against the cset of the point named [judged_by] (default: its own;
   a cset is independent of the site count) and itself named [name]
   (default: the point's name). *)
let fixed ?(durable = false) ?judged_by ?name point description =
  let judged_by = Option.value judged_by ~default:point in
  let cset = (Taxi.point ~n:5 judged_by).Taxi.cset in
  {
    name = Option.value name ~default:point;
    description;
    lattice = Cset.to_string cset;
    durable;
    client =
      (fun ~sites ->
        Chaos.Runner.Fixed (Taxi.point ~n:sites point).Taxi.assignment);
    accepts = Taxi.predicted_accepts cset;
    online = (fun () -> Taxi.predicted_online cset);
  }

let all =
  [
    fixed "top" "{Q1,Q2}: the preferred priority queue (PQ)";
    fixed "q1" "{Q1}: duplicates possible (MPQ)";
    fixed "q2" "{Q2}: reordering possible (OPQ)";
    fixed "bottom" "{}: any service of any request (DegenPQ)";
    (* The journal-intact constraint point: the top assignment with
       write-ahead journals, so a crash is a power loss — volatile logs
       evaporate — yet recovery from stable storage must keep histories
       inside the same {Q1,Q2} language as top. *)
    fixed ~durable:true ~name:"recover" "top"
      "{Q1,Q2} with journals: crash = power loss, recovery replays the WAL";
    (* The journal-lost point: same durable setup, but judged against
       the empty constraint set — the honest lattice position once
       stable storage itself can be lost (the amnesia nemesis).  Its
       claim sweeps with amnesia enabled: conformance to anything
       stronger is exactly the assumption amnesia breaks. *)
    fixed ~durable:true ~name:"lost" ~judged_by:"bottom" "top"
      "{} with journals: stable-storage loss degrades to DegenPQ honestly";
    {
      name = "adaptive";
      description =
        "Section 2.3 controller-driven client vs the combined automaton";
      lattice = "adaptive";
      durable = false;
      client =
        (fun ~sites ->
          Chaos.Runner.Controlled
            {
              preferred = Adaptive.preferred_assignment ~n:sites;
              degraded = Adaptive.relaxed_assignment ~n:sites;
              degrade = Adaptive.degrade_event;
              restore = Adaptive.restore_event;
              controller = None;
            });
      accepts = Automaton.accepts Adaptive.combined;
      online = (fun () -> Relax_degrade.Online.of_automaton Adaptive.combined);
    };
  ]

let names = List.map (fun s -> s.name) all

let find name =
  match List.find_opt (fun s -> s.name = name) all with
  | Some s -> Ok s
  | None ->
    Error
      (Fmt.str "unknown lattice point %S (known: %s)" name
         (String.concat ", " names))

(* The assumption-preserving mix: every nemesis under which conformance
   is a theorem.  Amnesia is deliberately absent — it breaks the
   stable-storage assumption the guarantees rest on, so histories under
   it may (and should be able to) escape the predicted language. *)
let default_nemeses =
  [ "crash"; "partition"; "drop"; "delay"; "dup"; "skew"; "rejoin" ]

(* ------------------------------------------------------------------ *)
(* Trace construction and replay                                       *)
(* ------------------------------------------------------------------ *)

(* The schedule stream is derived from the run seed but decoupled from
   the engine ([seed]) and workload ([seed + 77]) streams. *)
let schedule_rng config = Relax_sim.Rng.create ~seed:(config.Chaos.Runner.seed + 7919)

let make_trace ~point ~nemeses ~config =
  match (find point, Chaos.Nemesis.of_names nemeses) with
  | Error e, _ | _, Error e -> Error e
  | Ok _, Ok nems ->
    let events =
      Chaos.Nemesis.generate nems ~rng:(schedule_rng config)
        ~sites:config.Chaos.Runner.sites
        ~horizon:(Chaos.Runner.horizon config)
        ~tick:config.Chaos.Runner.op_window
    in
    Ok { Chaos.Trace.point; nemeses; config; events }

let run_trace (trace : Chaos.Trace.t) =
  match find trace.point with
  | Error e -> Error e
  | Ok sc ->
    let module A = Relax_obs.Tracer.Ambient in
    let module At = Relax_obs.Attr in
    A.span "chaos/run"
      ~attrs:
        [
          At.str "point" trace.point;
          At.str "cset" sc.lattice;
          At.int "seed" trace.config.Chaos.Runner.seed;
          At.str "nemeses" (String.concat "," trace.nemeses);
          At.int "faults" (List.length trace.events);
        ]
      (fun () ->
        let result =
          Chaos.Runner.run ~config:trace.config ~durable:sc.durable
            ~online:sc.online
            ~client:(sc.client ~sites:trace.config.Chaos.Runner.sites)
            ~respond:Choosers.pq_eta trace.events
        in
        let verdict = Chaos.Oracle.check ~accepts:sc.accepts result.history in
        A.instant "chaos/verdict"
          ~attrs:
            [
              At.str "point" trace.point;
              At.bool "conforms" (Chaos.Oracle.conforms verdict);
              At.bool "online-viol"
                (Option.is_some result.Chaos.Runner.online_violation);
            ];
        Ok (result, verdict))

(* Does this schedule, substituted into the trace, still violate?  The
   probe the shrinker drives; deterministic because the runner is. *)
let violates (trace : Chaos.Trace.t) events =
  match run_trace { trace with events } with
  | Ok (_, Chaos.Oracle.Violation _) -> true
  | Ok (_, Chaos.Oracle.Conforms) | Error _ -> false

let shrink_trace (trace : Chaos.Trace.t) =
  let events, probes =
    Chaos.Shrink.minimize ~violates:(violates trace) trace.events
  in
  ({ trace with events }, probes)

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

type run_report = {
  index : int;
  trace : Chaos.Trace.t;
  result : Chaos.Runner.result;
  verdict : Chaos.Oracle.verdict;
}

type violation = {
  report : run_report;
  shrunk : Chaos.Trace.t;
  probes : int;
}

type sweep_report = { reports : run_report list; violations : violation list }

let sweep ?jobs ?(config = Chaos.Runner.default_config) ?(shrink = true) ~runs
    ~seed ~nemeses ~points () =
  if runs <= 0 then Error "chaos sweep: runs must be positive"
  else
    (* validate up front so a bad name fails before the fan-out *)
    let bad =
      List.filter_map
        (fun p -> match find p with Error e -> Some e | Ok _ -> None)
        points
    in
    match (points, bad, Chaos.Nemesis.of_names nemeses) with
    | [], _, _ -> Error "chaos sweep: no lattice points selected"
    | _, e :: _, _ -> Error e
    | _, [], Error e -> Error e
    | _, [], Ok _ ->
      let npoints = List.length points in
      (* per-run seeds and points are fixed before the fan-out, so the
         report is identical at any --jobs *)
      let specs =
        List.init runs (fun i ->
            (i, List.nth points (i mod npoints), seed + i))
      in
      let reports =
        Relax_parallel.Pool.map ?jobs
          (fun (index, point, run_seed) ->
            let config = { config with Chaos.Runner.seed = run_seed } in
            match make_trace ~point ~nemeses ~config with
            | Error e -> failwith e (* validated above; impossible *)
            | Ok trace -> (
              match run_trace trace with
              | Error e -> failwith e
              | Ok (result, verdict) -> { index; trace; result; verdict }))
          specs
      in
      let violations =
        List.filter_map
          (fun r ->
            match r.verdict with
            | Chaos.Oracle.Conforms -> None
            | Chaos.Oracle.Violation _ ->
              if shrink then
                let shrunk, probes = shrink_trace r.trace in
                Some { report = r; shrunk; probes }
              else Some { report = r; shrunk = r.trace; probes = 0 })
          reports
      in
      Ok { reports; violations }

(* ------------------------------------------------------------------ *)
(* Reporting and the conformance claim                                 *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf report =
  let by_point =
    List.map
      (fun p ->
        let rs =
          List.filter (fun r -> r.trace.Chaos.Trace.point = p) report.reports
        in
        let conform =
          List.length
            (List.filter (fun r -> Chaos.Oracle.conforms r.verdict) rs)
        in
        let completed =
          List.fold_left (fun acc r -> acc + r.result.Chaos.Runner.completed) 0 rs
        and unavailable =
          List.fold_left
            (fun acc r -> acc + r.result.Chaos.Runner.unavailable)
            0 rs
        and retries =
          List.fold_left
            (fun acc r -> acc + r.result.Chaos.Runner.retries_used)
            0 rs
        and faults =
          List.fold_left
            (fun acc r -> acc + List.length r.trace.Chaos.Trace.events)
            0 rs
        in
        (p, List.length rs, conform, completed, unavailable, retries, faults))
      (List.sort_uniq compare
         (List.map (fun r -> r.trace.Chaos.Trace.point) report.reports))
  in
  List.iter
    (fun (p, runs, conform, completed, unavailable, retries, faults) ->
      Fmt.pf ppf
        "%-10s runs %3d  conform %3d  completed %4d  unavailable %3d  \
         retries %3d  faults %4d@\n"
        p runs conform completed unavailable retries faults)
    by_point;
  List.iter
    (fun v ->
      Fmt.pf ppf
        "VIOLATION in run %d (point %s, seed %d): shrunk %d -> %d events \
         (%d probes)@\n"
        v.report.index v.report.trace.Chaos.Trace.point
        v.report.trace.Chaos.Trace.config.Chaos.Runner.seed
        (List.length v.report.trace.Chaos.Trace.events)
        (List.length v.shrunk.Chaos.Trace.events)
        v.probes)
    report.violations

(* The aggregate conformance claim: a small searched sweep — every
   lattice point, the full assumption-preserving nemesis mix — in which
   every completed history must lie in its point's predicted language. *)
let claim_runs = 10
let claim_seed = 42

let run_body ppf =
  match
    sweep ~runs:claim_runs ~seed:claim_seed ~nemeses:default_nemeses
      ~points:names ()
  with
  | Error e ->
    Fmt.pf ppf "sweep failed: %s@\n" e;
    false
  | Ok report ->
    pp_summary ppf report;
    report.violations = []

(* The journal-intact claim: at the "recover" point a crash is a power
   loss, so conformance additionally depends on the WAL recovery path —
   which the claim also requires to have actually run. *)
let recovery_body ppf =
  match
    sweep ~runs:claim_runs ~seed:claim_seed ~nemeses:default_nemeses
      ~points:[ "recover" ] ()
  with
  | Error e ->
    Fmt.pf ppf "sweep failed: %s@\n" e;
    false
  | Ok report ->
    pp_summary ppf report;
    let recoveries =
      List.fold_left
        (fun acc r -> acc + r.result.Chaos.Runner.recoveries)
        0 report.reports
    in
    Fmt.pf ppf "journal recoveries across the sweep: %d@\n" recoveries;
    report.violations = [] && recoveries > 0

(* The journal-lost claim: with amnesia in the mix even journaled sites
   can lose stable storage, and the honest constraint point is the empty
   cset — which the "lost" scenario's histories must still satisfy. *)
let lost_nemeses = default_nemeses @ [ "amnesia" ]

let lost_body ppf =
  match
    sweep ~runs:claim_runs ~seed:claim_seed ~nemeses:lost_nemeses
      ~points:[ "lost" ] ()
  with
  | Error e ->
    Fmt.pf ppf "sweep failed: %s@\n" e;
    false
  | Ok report ->
    pp_summary ppf report;
    report.violations = []

let claims () =
  [
    Relax_claims.Claim.report ~id:"chaos/conformance" ~kind:Characterization
      ~paper:"Sections 2.3 and 3.3 (searched)"
      ~description:
        "under searched assumption-preserving fault schedules, every \
         completed history stays in its lattice point's predicted language"
      ~detail:
        (Fmt.str "%d seeded runs, points %s, nemeses %s" claim_runs
           (String.concat "/" names)
           (String.concat "/" default_nemeses))
      run_body;
    Relax_claims.Claim.report ~id:"chaos/recovery" ~kind:Characterization
      ~paper:"Section 3.1 (stable storage, executed)"
      ~description:
        "with write-ahead journals, crashes that lose volatile state \
         recover from stable storage and histories stay in the top \
         point's language"
      ~detail:
        (Fmt.str
           "%d seeded runs at point recover, nemeses %s, requiring >0 \
            journal recoveries"
           claim_runs
           (String.concat "/" default_nemeses))
      recovery_body;
    Relax_claims.Claim.report ~id:"chaos/journal-lost" ~kind:Characterization
      ~paper:"Section 3.3 (assumption violation, judged honestly)"
      ~description:
        "when stable storage itself can be lost (amnesia), the honest \
         constraint point is the empty cset and histories satisfy it"
      ~detail:
        (Fmt.str "%d seeded runs at point lost, nemeses %s" claim_runs
           (String.concat "/" lost_nemeses))
      lost_body;
  ]

let group () =
  {
    Relax_claims.Registry.gid = "chaos";
    title = "X-chaos: searched lattice conformance under fault injection";
    header = "== X-chaos: searched conformance (seeded nemesis sweep) ==\n";
    claims = claims ();
  }
