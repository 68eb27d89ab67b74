(* Workload `faults`: the replicated priority queue at all seven lattice
   points, every history judged by the oracle, in two phases that use
   the replica differently.

   - search: guided LDFI to exhaustion at the CI budget (6-request
     histories, 2,896 executions).  Exhaustive, so it takes no seed.
   - history: one seeded chaos run per point under the default nemeses
     with 100-request histories, where run time grows far faster than
     the work (log length).

   replica, sim, degrade, journal and ldfi do the work; the language
   product does none. *)

open Measure
module X = Relax_experiments.Chaos_scenarios
module Ldfi_x = Relax_experiments.Ldfi_x
module Search = Relax_ldfi.Search
module Chaos = Relax_chaos
module Tracer = Relax_obs.Tracer

let requests cfg = if cfg.smoke then 24 else 100
let search_points cfg = if cfg.smoke then [ "bottom" ] else X.names

(* point -> the stats line of expected_ldfi_coverage.json, read when the
   first unit is judged *)
let expected =
  lazy
    (let doc = Json.read_file "expected_ldfi_coverage.json" in
     let b = Json.field "budget" doc in
     let ci = Search.ci_budget in
     if
       Json.to_int (Json.field "max_crashes" b) <> ci.max_crashes
       || Json.to_int (Json.field "max_drops" b) <> ci.max_drops
       || Json.to_int (Json.field "max_injections" b) <> ci.max_injections
     then failwith "expected_ldfi_coverage.json is not at the CI budget";
     Json.to_list (Json.field "points" doc)
     |> List.map (fun p ->
            let i k = Json.to_int (Json.field k p) in
            ( Json.to_string (Json.field "point" p),
              ( i "executions", i "injections", i "candidates", i "vars", i "clauses",
                i "rounds", Json.to_bool (Json.field "exhausted" p), i "violations" ) )))

(* Count the events of an ambient-traced call by name. *)
let ambient_counts f =
  let tracer = Tracer.create () in
  let v = Tracer.Ambient.with_tracer tracer f in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (e : Tracer.event) ->
      Hashtbl.replace counts e.name (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.name)))
    (Tracer.events tracer);
  (v, counts)

let count counts name = Option.value ~default:0 (Hashtbl.find_opt counts name)

(* Per-unit tallies of the wrapped LDFI executions. *)
type acc = {
  mutable exec_s : float;
  mutable run_s : float;
  mutable support_s : float;
  mutable events : int;  (** every event of the lineage tracers *)
  mutable dispatches : int;  (** engine dispatches among them *)
  mutable ops : int;
}

(* Ldfi_x.system, with each call into a layer timed (and recorded as a
   span when tracing); event counting walks the lineage only in traced
   units. *)
let system acc ~traced ~config point =
  {
    Search.exec =
      (fun events ->
        let run, exec_dt =
          Spans.time ~layer:"ldfi" "Search.system.exec" (fun () ->
              let trace = Ldfi_x.make_trace ~config ~point events in
              let tracer = Tracer.create () in
              let outcome, run_dt =
                Spans.time ~layer:"chaos" "Chaos_scenarios.run_trace" (fun () ->
                    Tracer.Ambient.with_tracer tracer (fun () -> X.run_trace trace))
              in
              acc.run_s <- acc.run_s +. run_dt;
              match outcome with
              | Error e -> failwith e
              | Ok (result, verdict) ->
                let support, support_dt =
                  Spans.time ~layer:"ldfi" "Support.of_events" (fun () ->
                      Relax_ldfi.Support.of_events (Tracer.events tracer))
                in
                acc.support_s <- acc.support_s +. support_dt;
                if traced then begin
                  acc.events <- acc.events + Tracer.event_count tracer;
                  acc.dispatches <-
                    acc.dispatches
                    + List.length
                        (List.filter
                           (fun (e : Tracer.event) -> e.name = "engine/dispatch")
                           (Tracer.events tracer));
                  acc.ops <- acc.ops + result.Chaos.Runner.completed + result.unavailable
                end;
                { Search.conforms = Chaos.Oracle.conforms verdict; support })
        in
        acc.exec_s <- acc.exec_s +. exec_dt;
        run);
  }

let search cfg ~traced =
  let acc =
    { exec_s = 0.0; run_s = 0.0; support_s = 0.0; events = 0; dispatches = 0; ops = 0 }
  in
  let results, wall =
    Spans.time ~layer:"perfbench" "search_s" (fun () ->
        List.map
          (fun point ->
            let sc = Result.get_ok (X.find point) in
            let sys = system acc ~traced ~config:Ldfi_x.default_config point in
            let r, _ =
              Spans.time ~layer:"ldfi" ("Search.guided " ^ point) (fun () ->
                  Search.guided ~durable:sc.X.durable ~budget:Search.ci_budget sys)
            in
            (point, r))
          (search_points cfg))
  in
  (results, wall, acc)

type run = {
  point : string;
  result : Chaos.Runner.result;
  verdict : Chaos.Oracle.verdict;
  run_s : float;
  oracle_s : float;
  counts : (string, int) Hashtbl.t;
}

(* Chaos_scenarios.run_trace, split so the oracle is timed on its own. *)
let history traces ~traced =
  Spans.time ~layer:"perfbench" "history_s" (fun () ->
      List.map
        (fun (trace : Chaos.Trace.t) ->
          let sc = Result.get_ok (X.find trace.point) in
          let config = trace.config in
          let go () =
            Chaos.Runner.run ~config ~durable:sc.X.durable ~online:sc.X.online
              ~client:(sc.X.client ~sites:config.Chaos.Runner.sites)
              ~respond:Relax_replica.Choosers.pq_eta trace.events
          in
          let (result, counts), run_s =
            Spans.time ~layer:"chaos" ("Runner.run " ^ trace.point) (fun () ->
                if traced then ambient_counts go else (go (), Hashtbl.create 1))
          in
          let verdict, oracle_s =
            Spans.time ~layer:"chaos" ("Oracle.check " ^ trace.point) (fun () ->
                Chaos.Oracle.check ~accepts:sc.X.accepts result.Chaos.Runner.history)
          in
          { point = trace.point; result; verdict; run_s; oracle_s; counts })
        traces)

let ldfi_line (s : Search.stats) =
  (s.executions, s.injections, s.candidates, s.vars, s.clauses, s.rounds, s.exhausted, 0)

let layers ~searched ~search_s ~acc ~runs ~schedule_s =
  let stat f = fi (List.fold_left (fun n (_, (r : Search.result)) -> n + f r.stats) 0 searched) in
  let tally f = fi (List.fold_left (fun n r -> n + f r.result) 0 runs) in
  let amb name = fi (List.fold_left (fun n r -> n + count r.counts name) 0 runs) in
  let long_events = amb "engine/dispatch" in
  let long_ops = tally (fun r -> r.Chaos.Runner.completed + r.unavailable) in
  let runner_s = sum (List.map (fun r -> r.run_s) runs) in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  let s = "search_s" and h = "history_s" in
  [
    metric ~moves:s "ldfi.executions" "count" (stat (fun st -> st.executions));
    metric ~moves:s "ldfi.candidates" "count" (stat (fun st -> st.candidates));
    metric ~moves:s "ldfi.clauses" "count" (stat (fun st -> st.clauses));
    metric ~moves:s "ldfi.vars" "count" (stat (fun st -> st.vars));
    metric ~moves:s "ldfi.exec_s" "s" acc.exec_s;
    metric ~moves:s "ldfi.run_s" "s" acc.run_s;
    metric ~moves:s "ldfi.support_s" "s" acc.support_s;
    metric ~moves:s "ldfi.solver_s" "s" (search_s -. acc.exec_s);
    metric ~moves:s "obs.events_per_exec" "events/exec"
      (per (fi acc.events) (stat (fun st -> st.executions)));
  ]
  @ List.map
      (fun p ->
        metric ~moves:h ("chaos.run_s." ^ p) "s"
          (sum (List.filter_map (fun r -> if r.point = p then Some r.run_s else None) runs)))
      X.names
  @ [
      metric ~moves:h "chaos.oracle_s" "s" (sum (List.map (fun r -> r.oracle_s) runs));
      metric ~moves:h "replica.completed" "count" (tally (fun r -> r.completed));
      metric ~moves:h "replica.unavailable" "count" (tally (fun r -> r.unavailable));
      metric ~moves:h "replica.attempts" "count" (tally (fun r -> r.attempts));
      metric ~moves:h "replica.retries" "count" (tally (fun r -> r.retries_used));
      metric ~moves:h "degrade.mode_switches" "count" (tally (fun r -> r.mode_switches));
      metric ~moves:h "degrade.gossip_rounds" "count" (tally (fun r -> r.gossip_rounds));
      metric ~moves:h "journal.recoveries" "count" (tally (fun r -> r.recoveries));
      metric ~moves:h "replica.absorbs" "count" (amb "replica/absorb");
      metric ~moves:h "degrade.samples" "count" (amb "degrade/sample");
      metric ~moves:"setup_s" "chaos.schedule_s" "s" schedule_s;
      metric ~moves:s "sim.events_per_op.short" "events/op" (per (fi acc.dispatches) (fi acc.ops));
      metric ~moves:h "sim.events_per_op.long" "events/op" (per long_events long_ops);
      metric ~moves:s "sim.us_per_event.short" "us" (per (acc.run_s *. 1e6) (fi acc.dispatches));
      metric ~moves:h "sim.us_per_event.long" "us" (per (runner_s *. 1e6) long_events);
    ]

let workload =
  {
    name = "faults";
    setup =
      (fun cfg ->
        let traces, schedule_s =
          Spans.time ~layer:"chaos" "Chaos_scenarios.make_trace" (fun () ->
              List.mapi
                (fun i point ->
                  let config =
                    { Chaos.Runner.default_config with
                      requests = requests cfg; seed = cfg.seed + i }
                  in
                  Result.get_ok (X.make_trace ~point ~nemeses:X.default_nemeses ~config))
                X.names)
        in
        let run ~traced =
          let minor0 = Gc.minor_words () in
          let searched, search_s, acc = search cfg ~traced in
          let runs, history_s = history traces ~traced in
          let minor = Gc.minor_words () -. minor0 in
          let search_problems =
            List.filter_map
              (fun (point, (r : Search.result)) ->
                match (r.violation, List.assoc_opt point (Lazy.force expected)) with
                | Some f, _ ->
                  Some
                    (Printf.sprintf "ldfi %s: violation {%s}" point
                       (String.concat "; " (List.map Search.var_key f.fault_set)))
                | None, Some want when want = ldfi_line r.stats -> None
                | None, Some _ ->
                  Some (Printf.sprintf "ldfi %s: counts differ from expected_ldfi_coverage.json" point)
                | None, None -> Some ("ldfi " ^ point ^ ": not in expected_ldfi_coverage.json"))
              searched
          in
          let history_problems =
            List.filter_map
              (fun r ->
                if Chaos.Oracle.conforms r.verdict && r.result.online_violation = None then None
                else Some ("history " ^ r.point ^ ": the oracle rejects the history"))
              runs
          in
          let problems = search_problems @ history_problems in
          let ldfi_counter (point, (r : Search.result)) =
            let s = r.stats in
            ( "ldfi." ^ point,
              Printf.sprintf "%d/%d/%d/%d/%d/%d" s.executions s.injections s.candidates s.vars
                s.clauses s.rounds )
          in
          {
            wall = search_s +. history_s;
            phases = [ ("search_s", search_s); ("history_s", history_s) ];
            named = [ metric "search_s" "s" search_s; metric "history_s" "s" history_s ];
            counters =
              List.map ldfi_counter searched
              @ List.map
                  (fun r -> ("chaos.digest." ^ r.point, Digest.to_hex (Digest.string r.result.digest)))
                  runs
              @ (if traced then
                   [
                     ("sim.events.short", string_of_int acc.dispatches);
                     ( "sim.events.long",
                       string_of_int
                         (List.fold_left (fun n r -> n + count r.counts "engine/dispatch") 0 runs) );
                   ]
                 else [ ("gc.minor_words.faults", Json.number minor) ]);
            attempted = List.length searched + List.length runs;
            failed = List.length problems;
            problems;
            layers =
              (if traced then
                 layers ~searched ~search_s ~acc ~runs ~schedule_s
               else []);
          }
        in
        { run; gate = (fun () -> no_gate) });
  }
