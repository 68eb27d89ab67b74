(* Benchmark harness: one Bechamel micro-benchmark per experiment of
   EXPERIMENTS.md, so the cost of every checker and simulator in the
   reproduction is tracked.  Estimates are printed as a plain table
   (monotonic clock, OLS against run count).

   Run with:  dune exec bench/main.exe

   Self-profiling mode:  dune exec bench/main.exe -- --trace-dir DIR
   skips the OLS timing and instead runs every row once under an
   ambient tracer, writing one Chrome trace_event artifact per row to
   DIR (open them in Perfetto).  Rows are declared as (name, thunk)
   pairs so the two modes share the exact same workloads. *)

open Bechamel
open Bechamel.Toolkit
open Relax_core
open Relax_objects
open Relax_quorum

let universe = Queue_ops.universe 2
let alphabet = Queue_ops.alphabet universe

(* ------------------------------------------------------------------ *)
(* F2-1 / F2-3: trait engine                                           *)
(* ------------------------------------------------------------------ *)

let bag_theory = Relax_larch.Theories.mbag ()
let fifo_theory = Relax_larch.Theories.fifoq ()

let bag_term =
  Relax_larch.Parser.expr_of_string
    "del(ins(ins(ins(ins(emp, 4), 2), 7), 2), 2)"

let fifo_term =
  Relax_larch.Parser.expr_of_string "first(rest(ins(ins(ins(emp, 3), 1), 2)))"

let rows_larch =
  [
    ( "larch/normalize-bag (F2-1)",
      fun () -> ignore (Relax_larch.Trait.normalize bag_theory bag_term) );
    ( "larch/normalize-fifo (F2-3)",
      fun () -> ignore (Relax_larch.Trait.normalize fifo_theory fifo_term) );
    ( "larch/parse-and-elaborate-Bag",
      fun () ->
        let ast =
          Relax_larch.Parser.trait_of_string Relax_larch.Theories.bag_src
        in
        ignore (Relax_larch.Trait.elaborate [] ast) );
  ]

(* F2-2: conformance of the bag model against Figure 2-2. *)
let rows_conformance =
  [
    ( "larch/conformance-bag (F2-2)",
      fun () ->
        ignore
          (Relax_larch.Conformance.check ~mode:Relax_larch.Conformance.Sound
             ~theory:bag_theory ~iface:(Relax_larch.Theories.bag_iface ())
             ~reify:Relax_larch.Reify.multiset ~automaton:Bag.automaton
             ~alphabet ~depth:3 ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Core machinery                                                      *)
(* ------------------------------------------------------------------ *)

let fixed_history =
  [
    Queue_ops.enq_int 1; Queue_ops.enq_int 2; Queue_ops.deq_int 2;
    Queue_ops.enq_int 1; Queue_ops.deq_int 1;
  ]

let qca_q1 = Qca.automaton Instances.pq_spec_eta Instances.q1

let theorem4 depth () =
  let qca = Qca.automaton_views ~alphabet Instances.pq_spec_eta Instances.q1 in
  ignore (Language.equivalent_bool qca Mpq.automaton ~alphabet ~depth)

let rows_core =
  [
    ( "core/enumerate-PQ-depth4",
      fun () -> ignore (Language.enumerate Pqueue.automaton ~alphabet ~depth:4)
    );
    ( "core/fig42-behavior-classes (F4-2)",
      fun () ->
        ignore
          (Relaxation.behavior_classes (Lattices.semiqueue ~n:3) ~alphabet
             ~depth:3) );
    ( "qca/accept-history (T4 membership)",
      fun () -> ignore (Automaton.accepts qca_q1 fixed_history) );
    ("qca/theorem4-equivalence-depth3 (T4)", theorem4 3);
    ("qca/theorem4-equivalence-depth8 (T4)", theorem4 8);
    ( "quorum/serial-dependency-depth3",
      fun () ->
        ignore
          (Serial.is_serial_dependency Pqueue.automaton
             (Relation.union Instances.q1 Instances.q2)
             ~alphabet ~depth:3) );
  ]

(* ------------------------------------------------------------------ *)
(* Probabilistic models                                                *)
(* ------------------------------------------------------------------ *)

let updown =
  Relax_prob.Markov.create ~labels:[| "up"; "down" |]
    ~p:(Relax_prob.Matrix.of_rows [ [ 0.9; 0.1 ]; [ 0.5; 0.5 ] ])

let rows_prob =
  [
    ( "prob/topn-montecarlo-10k (P3-3)",
      fun () ->
        ignore
          (Relax_prob.Topn.estimate ~trials:10_000 ~miss_probability:0.1
             ~pending:8 2) );
    ( "prob/availability-exact-table (X-av)",
      fun () -> ignore (Relax_experiments.Availability.exact_table ()) );
    ( "prob/markov-stationary",
      fun () -> ignore (Relax_prob.Markov.stationary updown) );
  ]

(* ------------------------------------------------------------------ *)
(* Simulators and case studies                                         *)
(* ------------------------------------------------------------------ *)

let small_atm_params =
  { Relax_experiments.Atm.default_params with rounds = 5; seed = 3 }

let rows_sim =
  [
    ( "sim/engine-1k-events",
      fun () ->
        let e = Relax_sim.Engine.create () in
        for i = 1 to 1_000 do
          Relax_sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
        done;
        Relax_sim.Engine.run e );
    ( "sim/engine-100k-events-recycled",
      fun () ->
        (* schedule/run in waves so every wave after the first reuses
           freelist records: the zero-alloc steady state of dispatch *)
        let e = Relax_sim.Engine.create () in
        for wave = 0 to 99 do
          for i = 1 to 1_000 do
            Relax_sim.Engine.schedule e
              ~delay:(float_of_int ((wave * 1_000) + i))
              (fun () -> ())
          done;
          Relax_sim.Engine.run e
        done );
    ( "sim/rng-10k-draws",
      fun () ->
        let r = Relax_sim.Rng.create ~seed:1 in
        for _ = 1 to 10_000 do
          ignore (Relax_sim.Rng.int r 100)
        done );
    ( "sim/rng-10k-pick-arr",
      fun () ->
        let r = Relax_sim.Rng.create ~seed:1 in
        let arr = Array.init 100 Fun.id in
        for _ = 1 to 10_000 do
          ignore (Relax_sim.Rng.pick_arr r arr)
        done );
    ( "sim/net-1k-batched-fanouts",
      fun () ->
        (* one latency draw + one engine event per 4-target batch *)
        let e = Relax_sim.Engine.create () in
        let net = Relax_sim.Network.create e ~sites:5 in
        for _ = 1 to 1_000 do
          let targets = Array.init 4 (fun i -> (i + 1, fun () -> ())) in
          Relax_sim.Network.send_batch net ~src:0 targets
        done;
        Relax_sim.Engine.run e );
    ( "replica/atm-5rounds (B3-4)",
      fun () ->
        ignore
          (Relax_experiments.Atm.run_once ~params:small_atm_params
             ~relax_a2:false ~think_time:10.0 ()) );
    ( "txn/spooler-run+atomic-check (A4-2, X-conc)",
      fun () ->
        ignore
          (Relax_experiments.Spooler.run_one ~items:8 ~seed:4
             Relax_txn.Spool.Optimistic ~k:2) );
  ]

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let rows_extensions =
  [
    ( "fifo/rfq-equivalence-depth3 (X-fifo)",
      fun () ->
        (* built per run: the automaton memoizes its steps, so a shared
           value would time a warm cache after the first run *)
        let fifo_qca =
          Qca.automaton_views ~alphabet Instances.fifo_spec_eta Instances.q1
        in
        ignore
          (Language.equivalent_bool fifo_qca Rfq.automaton ~alphabet ~depth:3)
    );
    ( "weighted/exact-availability (X-av)",
      fun () -> ignore (Relax_experiments.Availability.weighted_comparison ())
    );
    ( "txn/atomic-automaton-accept (A4-2)",
      let sched =
        Relax_txn.Atomic_automaton.encode
          (Relax_txn.Schedule.of_list
             [
               Relax_txn.Schedule.Exec
                 (Relax_txn.Tid.of_int 1, Queue_ops.enq_int 1);
               Relax_txn.Schedule.Commit (Relax_txn.Tid.of_int 1);
               Relax_txn.Schedule.Exec
                 (Relax_txn.Tid.of_int 2, Queue_ops.deq_int 1);
               Relax_txn.Schedule.Commit (Relax_txn.Tid.of_int 2);
             ])
      in
      let atomic = Relax_txn.Atomic_automaton.automaton Fifo.automaton in
      fun () -> ignore (Automaton.accepts atomic sched) );
    ( "replica/partition-run (X-part)",
      fun () ->
        ignore
          (Relax_experiments.Partition.run_point
             (List.hd (Relax_experiments.Taxi.points ~n:5))) );
  ]

(* ------------------------------------------------------------------ *)
(* X-chaos: the chaos engine                                           *)
(* ------------------------------------------------------------------ *)

module Chaos_x = Relax_experiments.Chaos_scenarios

let chaos_trace =
  match
    Chaos_x.make_trace ~point:"top" ~nemeses:Chaos_x.default_nemeses
      ~config:Relax_chaos.Runner.default_config
  with
  | Ok t -> t
  | Error e -> failwith e

(* One completed history plus its point's acceptance predicate, so the
   oracle can be timed in isolation from the simulation that fed it. *)
let chaos_history, chaos_accepts =
  match (Chaos_x.run_trace chaos_trace, Chaos_x.find "top") with
  | Ok (result, _), Ok scenario ->
      (result.Relax_chaos.Runner.history, scenario.Chaos_x.accepts)
  | Error e, _ | _, Error e -> failwith e

let rows_chaos =
  [
    ( "chaos/nemesis-schedule (X-chaos)",
      fun () ->
        ignore
          (Chaos_x.make_trace ~point:"top" ~nemeses:Chaos_x.default_nemeses
             ~config:Relax_chaos.Runner.default_config) );
    ( "chaos/single-run+oracle (X-chaos)",
      fun () -> ignore (Chaos_x.run_trace chaos_trace) );
    ( "chaos/oracle-check (X-chaos)",
      fun () ->
        ignore (Relax_chaos.Oracle.check ~accepts:chaos_accepts chaos_history)
    );
    ( "chaos/trace-roundtrip (X-chaos)",
      fun () ->
        ignore
          (Relax_chaos.Trace.of_string (Relax_chaos.Trace.to_string chaos_trace))
    );
  ]

(* The CI sweep (`rlx chaos run --runs 200 --seed 42`), once, with the
   oracle's share re-measured over the recorded histories: too coarse
   for OLS, so it is reported as plain wall-clock. *)
let print_chaos_sweep () =
  Fmt.pr "@.== chaos sweep (200 runs, seed 42 — the CI job) ==@.";
  let t0 = Unix.gettimeofday () in
  match
    Chaos_x.sweep ~runs:200 ~seed:42 ~nemeses:Chaos_x.default_nemeses
      ~points:Chaos_x.names ()
  with
  | Error e -> Fmt.pr "sweep error: %s@." e
  | Ok report ->
      let wall = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      List.iter
        (fun (r : Chaos_x.run_report) ->
          match Chaos_x.find r.Chaos_x.trace.Relax_chaos.Trace.point with
          | Ok s ->
              ignore
                (Relax_chaos.Oracle.check ~accepts:s.Chaos_x.accepts
                   r.Chaos_x.result.Relax_chaos.Runner.history)
          | Error e -> failwith e)
        report.Chaos_x.reports;
      let oracle = Unix.gettimeofday () -. t1 in
      Fmt.pr "chaos/run-200 wall-clock %8.1f ms  (%d runs, %d violations)@."
        (wall *. 1000.)
        (List.length report.Chaos_x.reports)
        (List.length report.Chaos_x.violations);
      Fmt.pr "chaos/oracle-200         %8.1f ms  (conformance checks alone)@."
        (oracle *. 1000.)

(* ------------------------------------------------------------------ *)
(* X-ldfi: lineage-driven fault injection                              *)
(* ------------------------------------------------------------------ *)

module Ldfi = Relax_ldfi
module Ldfi_x = Relax_experiments.Ldfi_x

(* Lineage-extraction overhead: the same conforming run untraced (what
   each random-sweep execution pays) and traced into a support graph
   (what each LDFI execution pays) — the delta between the two rows is
   the per-run price of lineage. *)
let ldfi_events =
  let tracer = Relax_obs.Tracer.create () in
  Relax_obs.Tracer.Ambient.with_tracer tracer (fun () ->
      ignore (Chaos_x.run_trace chaos_trace));
  Relax_obs.Tracer.events tracer

let rows_ldfi_lineage =
  [
    ( "ldfi/run-untraced (X-ldfi)",
      fun () -> ignore (Chaos_x.run_trace chaos_trace) );
    ( "ldfi/run+lineage-extraction (X-ldfi)",
      fun () ->
        let tracer = Relax_obs.Tracer.create () in
        Relax_obs.Tracer.Ambient.with_tracer tracer (fun () ->
            ignore (Chaos_x.run_trace chaos_trace));
        ignore (Ldfi.Support.of_events (Relax_obs.Tracer.events tracer)) );
    ( "ldfi/support-of-events (X-ldfi)",
      fun () -> ignore (Ldfi.Support.of_events ldfi_events) );
  ]

(* Solver wall-clock vs failure budget.  The CNF is synthetic but
   lineage-shaped: one clause per goal mixing a few coarse (crash-like,
   < 100) variables with several fine (drop-like, >= 100) ones, the
   positive monotone structure {!Relax_ldfi.Solver} is specialized to.
   Budget rows widen the crash allowance the way `rlx ldfi hunt` does. *)
let ldfi_cnf =
  List.init 60 (fun g ->
      let crash i = (g + (5 * i)) mod 15 in
      let drop i = 100 + (((7 * g) + (3 * i)) mod 240) in
      [ crash 0; crash 1; crash 2; drop 0; drop 1; drop 2; drop 3 ])

let ldfi_solver_cfg ~max_crashes ~max_drops =
  {
    Ldfi.Solver.compare = Int.compare;
    admissible =
      (fun vars ->
        let crashes = List.length (List.filter (fun v -> v < 100) vars) in
        crashes <= max_crashes && List.length vars - crashes <= max_drops);
    max_size = max_crashes + max_drops;
    max_models = 100_000;
  }

let rows_ldfi_solver =
  let row ~max_crashes ~max_drops =
    let cfg = ldfi_solver_cfg ~max_crashes ~max_drops in
    ( Fmt.str "ldfi/solver-budget-%dc%dd (X-ldfi)" max_crashes max_drops,
      fun () -> ignore (Ldfi.Solver.models cfg ldfi_cnf) )
  in
  [
    row ~max_crashes:1 ~max_drops:1;
    row ~max_crashes:2 ~max_drops:1;
    row ~max_crashes:3 ~max_drops:1;
  ]

(* The hunt (`rlx ldfi hunt`) at a reduced workload, as wall-clock:
   executions-to-violation for the guided search vs the random baseline
   over the same fault space and budget.  The baseline gets ten times
   the guided execution count; finding nothing within that cap is the
   >=10x speedup holding by construction. *)
let print_ldfi_hunt () =
  Fmt.pr "@.== ldfi hunt (wipe nemesis, guided vs random) ==@.";
  let config = { Ldfi_x.hunt_config with Relax_chaos.Runner.requests = 4 } in
  let t0 = Unix.gettimeofday () in
  match Ldfi_x.hunt ~config "top" with
  | Error e -> Fmt.pr "hunt error: %s@." e
  | Ok h ->
    let wall = Unix.gettimeofday () -. t0 in
    let g = h.Ldfi_x.guided and r = h.Ldfi_x.random in
    (match g.Ldfi_x.violation with
    | Some v ->
      Fmt.pr "ldfi/guided-to-violation  %6d executions  {%s}@."
        g.Ldfi_x.stats.Ldfi.Search.executions
        (String.concat "; " v.Ldfi_x.fault_set)
    | None ->
      Fmt.pr "ldfi/guided-to-violation  none within %d executions@."
        g.Ldfi_x.stats.Ldfi.Search.executions);
    (match (r.Ldfi_x.violation, h.Ldfi_x.speedup) with
    | Some _, Some x ->
      Fmt.pr "ldfi/random-to-violation  %6d executions  (guided %.1fx faster)@."
        r.Ldfi_x.stats.Ldfi.Search.executions x
    | _ ->
      Fmt.pr
        "ldfi/random-to-violation  none within the %d-execution cap (>=10x by \
         construction)@."
        h.Ldfi_x.random_cap);
    Fmt.pr "ldfi/hunt wall-clock      %8.1f ms@." (wall *. 1000.)

(* ------------------------------------------------------------------ *)
(* X-recover: the write-ahead journal                                  *)
(* ------------------------------------------------------------------ *)

module Journal = Relax_journal.Journal
module Jdevice = Relax_journal.Device

let journal_payload = String.make 128 'j'

(* A synced two-segment journal to re-attach: the warm recovery path
   (scan + CRC of every record, no truncation work). *)
let journal_attach_dev =
  let dev = Jdevice.memory () in
  let j, _, _ = Journal.attach ~segment_size:8192 dev ~name:"wal" in
  for _ = 1 to 1_000 do
    Journal.append j journal_payload
  done;
  Journal.sync j;
  dev

let rows_journal =
  [
    ( "journal/append+sync-100rec (X-recover)",
      fun () ->
        let dev = Jdevice.memory () in
        let j, _, _ = Journal.attach dev ~name:"wal" in
        for _ = 1 to 100 do
          Journal.append j journal_payload
        done;
        Journal.sync j );
    ( "journal/attach-1k-records (X-recover)",
      fun () ->
        ignore (Journal.attach ~segment_size:8192 journal_attach_dev ~name:"wal")
    );
    ( "journal/crash-recovery-200rec (X-recover)",
      fun () ->
        (* the cold path: power loss with an unsynced tail, then the
           truncating re-attach *)
        let dev = Jdevice.memory () in
        let j, _, _ = Journal.attach ~segment_size:8192 dev ~name:"wal" in
        for _ = 1 to 200 do
          Journal.append j journal_payload
        done;
        Journal.sync j;
        for _ = 1 to 20 do
          Journal.append j journal_payload
        done;
        Jdevice.crash dev;
        ignore (Journal.attach ~segment_size:8192 dev ~name:"wal") );
    ( "chaos/recover-point-run (X-recover)",
      fun () ->
        match
          Chaos_x.make_trace ~point:"recover" ~nemeses:Chaos_x.default_nemeses
            ~config:Relax_chaos.Runner.default_config
        with
        | Error e -> failwith e
        | Ok t -> ignore (Chaos_x.run_trace t) );
  ]

(* ------------------------------------------------------------------ *)
(* X-degrade: the degradation controller                               *)
(* ------------------------------------------------------------------ *)

module Degrade = Relax_degrade
module Degrade_x = Relax_experiments.Degrade_x
module Adaptive_x = Relax_experiments.Adaptive

(* One sampling round of the standard monitor suite (quorum
   reachability, convergence lag, retry pressure) over a quiet 5-site
   replica: the marginal cost of a single controller probe. *)
let degrade_monitors =
  let engine = Relax_sim.Engine.create ~seed:9 () in
  let net = Relax_sim.Network.create engine ~sites:5 in
  let preferred = Adaptive_x.preferred_assignment ~n:5 in
  let replica =
    Relax_replica.Replica.create engine net preferred
      ~respond:Relax_replica.Choosers.pq_eta
  in
  [
    Degrade.Monitor.quorum_reachability ~name:"quorums" ~net
      ~assignment:preferred ();
    Degrade.Monitor.convergence ~name:"converged" ~replica ();
    Degrade.Monitor.retry_pressure ~name:"retry-pressure" ~replica ();
  ]

(* A full controller (sampling loop plus anti-entropy scheduler) over a
   fixed 1000-tick fault-free horizon at a given probe interval: the
   overhead of densifying the sampling loop, isolated from any fault
   handling. *)
let controller_horizon_run ~sample_every () =
  let engine = Relax_sim.Engine.create ~seed:9 () in
  let net = Relax_sim.Network.create engine ~sites:5 in
  let preferred = Adaptive_x.preferred_assignment ~n:5 in
  let replica =
    Relax_replica.Replica.create engine net preferred
      ~respond:Relax_replica.Choosers.pq_eta
  in
  let c =
    Degrade.Controller.create
      ~config:{ Degrade.Controller.default_config with sample_every }
      ~replica
      ~constraints:
        [
          Degrade.Monitor.quorum_reachability ~name:"quorums" ~net
            ~assignment:preferred ();
          Degrade.Monitor.retry_pressure ~name:"retry-pressure" ~replica ();
        ]
      ~restore_gate:
        [
          Degrade.Monitor.convergence ~name:"converged" ~replica ();
          Degrade.Monitor.quorum_reachability ~name:"quorums" ~net
            ~assignment:preferred ();
        ]
      ~preferred
      ~degraded:(Adaptive_x.relaxed_assignment ~n:5)
      ()
  in
  Degrade.Controller.install c;
  Relax_sim.Engine.run ~until:1_000.0 engine;
  Degrade.Controller.stop c

let rows_degrade =
  [
    ( "degrade/monitor-sample-suite (X-degrade)",
      fun () ->
        List.iter (fun m -> ignore (Degrade.Monitor.sample m)) degrade_monitors
    );
    ( "degrade/controller-1k-ticks-probe1 (X-degrade)",
      controller_horizon_run ~sample_every:1.0 );
    ( "degrade/controller-1k-ticks-probe10 (X-degrade)",
      controller_horizon_run ~sample_every:10.0 );
    ( "degrade/controller-1k-ticks-probe100 (X-degrade)",
      controller_horizon_run ~sample_every:100.0 );
    ( "degrade/controlled-run-12req (X-degrade)",
      fun () ->
        ignore
          (Degrade_x.run_one
             ~config:{ Relax_chaos.Runner.default_config with requests = 12 }
             ~nemeses:[ "partition" ] 42) );
  ]

(* ------------------------------------------------------------------ *)
(* X-relax: live multicore relaxed queues                              *)
(* ------------------------------------------------------------------ *)

module Relax = Relax_relax

(* Single-domain op-pair cost of each live structure (the uncontended
   fast path), plus one full recorded-and-checked harness run. *)
let rows_relax =
  let rq = Relax.Rqueue.create ~width:4 () in
  let lq = Relax.Lockq.create () in
  let sq = Relax.Stutq.create ~j:3 in
  List.iter (Relax.Rqueue.enqueue rq ~hint:0) [ 1; 2 ];
  List.iter (Relax.Lockq.enqueue lq) [ 1; 2 ];
  List.iter (Relax.Stutq.enqueue sq) [ 1; 2 ];
  [
    ( "relax/rqueue-enq-deq-pair (X-relax)",
      fun () ->
        Relax.Rqueue.enqueue rq ~hint:0 3;
        ignore (Relax.Rqueue.dequeue rq ~hint:0) );
    ( "relax/lockq-enq-deq-pair (X-relax)",
      fun () ->
        Relax.Lockq.enqueue lq 3;
        ignore (Relax.Lockq.dequeue lq) );
    ( "relax/stutq-enq-deq-pair (X-relax)",
      fun () ->
        Relax.Stutq.enqueue sq 3;
        ignore (Relax.Stutq.dequeue sq) );
    ( "relax/recorded-run-2dom-120ops (X-relax)",
      fun () -> ignore (Relax.Harness.run Relax.Harness.default_params) );
  ]

(* The relaxed-vs-locked scaling table.  Each cell is the median of
   three repetitions, and the repetitions interleave every configuration
   so a noisy scheduler burst degrades one rep of each cell instead of
   every rep of one cell. *)
let print_relax_throughput () =
  let ops_per_domain = 30_000 and reps = 3 in
  let bench impl ~k d =
    Relax.Harness.bench impl ~domains:d ~ops_per_domain ~k ~j:3 ~seed:42
  in
  let configs =
    [
      ("relaxed k=4", bench Relax.Harness.Relaxed ~k:4);
      ("relaxed k=16", bench Relax.Harness.Relaxed ~k:16);
      ("locked", bench Relax.Harness.Locked ~k:4);
      ("stuttering j=3", bench Relax.Harness.Stuttering ~k:4);
    ]
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let tbl = Hashtbl.create 16 in
  for _rep = 1 to reps do
    List.iter
      (fun d ->
        List.iter
          (fun (label, f) ->
            let prior = try Hashtbl.find tbl (label, d) with Not_found -> [] in
            Hashtbl.replace tbl (label, d) (f d :: prior))
          configs)
      domain_counts
  done;
  let median key =
    let xs = List.sort compare (Hashtbl.find tbl key) in
    List.nth xs (List.length xs / 2)
  in
  Fmt.pr "@.== relax throughput (Mops/s, median of %d interleaved reps, %d \
          ops/domain) ==@."
    reps ops_per_domain;
  Fmt.pr "%-16s %s@." "impl"
    (String.concat "  "
       (List.map (fun d -> Fmt.str "%6d dom" d) domain_counts));
  List.iter
    (fun (label, _) ->
      Fmt.pr "%-16s %s@." label
        (String.concat "  "
           (List.map (fun d -> Fmt.str "%10.2f" (median (label, d)))
              domain_counts)))
    configs;
  let r = median ("relaxed k=16", 4) and l = median ("locked", 4) in
  Fmt.pr "relaxed (k=16) vs locked at 4 domains: %.2fx %s@." (r /. l)
    (if r > l then "— relaxed ahead" else "— locked ahead")

(* The CI degrade sweep (`rlx degrade sweep --runs 8`-sized), once, as
   wall-clock, with the transition-latency quantiles the controller is
   judged on. *)
let print_degrade_sweep () =
  Fmt.pr "@.== degrade sweep (8 controlled-vs-static runs, seed 42) ==@.";
  let t0 = Unix.gettimeofday () in
  match Degrade_x.sweep ~runs:8 ~seed:42 ~nemeses:[ "partition" ] () with
  | Error e -> Fmt.pr "sweep error: %s@." e
  | Ok report ->
    let wall = Unix.gettimeofday () -. t0 in
    let restores = Degrade_x.restore_times report in
    let degrades = Degrade_x.degrade_times report in
    Fmt.pr "degrade/sweep-8 wall-clock %8.1f ms  (%d violations, max %d \
            switches of %d allowed)@."
      (wall *. 1000.)
      report.Degrade_x.violations report.Degrade_x.max_switches
      report.Degrade_x.switch_limit;
    Fmt.pr "degrade/time-to-degrade   p50 %8.1f  p99 %8.1f  (%d episodes)@."
      (Degrade_x.quantile 0.5 degrades)
      (Degrade_x.quantile 0.99 degrades)
      (List.length degrades);
    Fmt.pr "degrade/time-to-restore   p50 %8.1f  p99 %8.1f  (%d episodes)@."
      (Degrade_x.quantile 0.5 restores)
      (Degrade_x.quantile 0.99 restores)
      (List.length restores)

(* ------------------------------------------------------------------ *)
(* X-load: the sharded workload generator                              *)
(* ------------------------------------------------------------------ *)

(* The load sweep, as wall-clock: each lattice point at shards=1 (the
   unsharded engine) and shards=4 over the domain pool, same total op
   count, so the last column is the multicore speedup.  On a single
   hardware thread the sharded run can only break even; the CI runners
   have four. *)
let print_load_sweep () =
  Fmt.pr "@.== load sweep (100k ops/point, shards 1 vs 4) ==@.";
  let module Load = Relax_experiments.Load in
  let params shards =
    { Load.default_params with Load.ops = 100_000; shards }
  in
  let points =
    (* top, q2, bottom: the strict, middle, and fully degraded points *)
    match Relax_experiments.Taxi.points ~n:5 with
    | [ top; _; q2; bottom ] -> [ top; q2; bottom ]
    | pts -> pts
  in
  List.iter
    (fun pt ->
      let seq = Load.run_point ~jobs:1 ~params:(params 1) pt in
      let par = Load.run_point ~jobs:4 ~params:(params 4) pt in
      Fmt.pr
        "%-34s avail %5.1f%%  p99 %5.1f  1-shard %9.0f ops/s  4-shard %9.0f \
         ops/s  (x%.2f)@."
        pt.Relax_experiments.Taxi.label
        (100.0 *. par.Load.availability)
        par.Load.p99 seq.Load.ops_per_sec par.Load.ops_per_sec
        (par.Load.ops_per_sec /. seq.Load.ops_per_sec))
    points

(* ------------------------------------------------------------------ *)
(* Claim registry                                                      *)
(* ------------------------------------------------------------------ *)

(* One entry per claim of the memoized language-level groups, at a small
   depth: tracks the per-claim cost of the checks the registry schedules.
   Claim thunks construct their automata and caches internally, so every
   run is cold and comparable. *)
let rows_claims =
  let memoized = [ "pq"; "collapses"; "account"; "fifo" ] in
  let registry = Relax_experiments.Catalog.registry ~alphabet ~depth:3 () in
  Relax_claims.Registry.groups registry
  |> List.filter (fun g -> List.mem g.Relax_claims.Registry.gid memoized)
  |> List.concat_map (fun g -> g.Relax_claims.Registry.claims)
  |> List.map (fun (c : Relax_claims.Claim.t) ->
         ( Fmt.str "claims/%s (depth 3)" c.Relax_claims.Claim.id,
           fun () -> ignore (c.Relax_claims.Claim.check ()) ))

(* The whole registry once, with verdict statistics: how much work each
   claim's checker did (histories enumerated, product states visited,
   memo hits) and how long it took. *)
let print_claim_stats () =
  let open Relax_claims in
  Fmt.pr "@.== claim verdicts (registry at depth 4) ==@.";
  Fmt.pr "%-34s %-6s %10s %10s %10s %10s@." "claim" "status" "histories"
    "visited" "memo-hits" "wall-ms";
  let results =
    Engine.run (Relax_experiments.Catalog.registry ~alphabet ~depth:4 ())
  in
  List.iter
    (fun (_, outcomes) ->
      List.iter
        (fun (o : Engine.outcome) ->
          let v = o.Engine.verdict in
          let s = v.Verdict.stats in
          Fmt.pr "%-34s %-6s %10d %10d %10d %10.2f@."
            o.Engine.claim.Claim.id
            (Verdict.status_to_string v.Verdict.status)
            s.Verdict.histories s.Verdict.visited s.Verdict.memo_hits
            (s.Verdict.wall_s *. 1000.))
        outcomes)
    results

(* ------------------------------------------------------------------ *)
(* Proof pipeline: certified simulation vs bounded enumeration         *)
(* ------------------------------------------------------------------ *)

(* OLS rows for one representative collapse: the same equivalence
   decided by synthesis + certification (valid at any depth) and by the
   bounded product search of [Language] (valid up to the depth only). *)
let rows_proof =
  let weight = Relax_experiments.Pq_checks.queue_weight in
  let proved budget () =
    ignore
      (Relax_proof.Pipeline.equivalent ~strategy:Relax_proof.Strategy.Simulation
         ~weight
         (Semiqueue.automaton 1)
         Fifo.automaton ~alphabet ~depth:budget)
  and enumerated depth () =
    ignore
      (Relax_core.Language.equivalent
         (Semiqueue.automaton 1)
         Fifo.automaton ~alphabet ~depth)
  in
  [
    ("proof/semiqueue1-fifo-sim (budget 5)", proved 5);
    ("proof/semiqueue1-fifo-enum (depth 5)", enumerated 5);
    ("proof/semiqueue1-fifo-sim (budget 7)", proved 7);
    ("proof/semiqueue1-fifo-enum (depth 7)", enumerated 7);
  ]

(* The check-all acceptance comparison: the whole registry at depth 7
   under the legacy strategy and under the pipeline default.  Auto must
   not be slower than Bounded_enum beyond noise — the certified claims
   trade their enumeration for a saturation of comparable cost. *)
let print_proof_pipeline () =
  let open Relax_claims in
  Fmt.pr "@.== proof pipeline (check all, depth 7) ==@.";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run strategy =
    time (fun () ->
        Engine.run
          (Relax_experiments.Catalog.registry ~alphabet ~depth:7 ~strategy ()))
  in
  let _, enum = run Relax_proof.Strategy.Bounded_enum in
  let results, auto = run Relax_proof.Strategy.Auto in
  let proved =
    List.concat_map snd results
    |> List.filter (fun o ->
           match o.Engine.verdict.Verdict.proof_method with
           | Some (Verdict.Proved_simulation _) -> true
           | _ -> false)
    |> List.length
  in
  Fmt.pr "claims/check-all-depth7-enum     %8.1f ms  (bounded enumeration)@."
    (enum *. 1000.);
  Fmt.pr
    "claims/check-all-depth7-auto     %8.1f ms  (%d claims proved by certified \
     simulation)@."
    (auto *. 1000.) proved

(* ------------------------------------------------------------------ *)
(* Tracing overhead: the `check all --depth 7` acceptance row          *)
(* ------------------------------------------------------------------ *)

(* Too coarse for OLS (seconds per run), so reported as wall-clock:
   the registry once with tracing off (the default), once with a tracer
   installed and the per-claim trace recorded.  The instrumentation is
   ambient-gated, so the "off" row is also what a pre-obs binary cost —
   the delta between the two rows is the price of turning tracing on. *)
let print_trace_overhead () =
  let open Relax_claims in
  Fmt.pr "@.== tracing overhead (check all, depth 7) ==@.";
  let registry () = Relax_experiments.Catalog.registry ~alphabet ~depth:7 () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let _, off = time (fun () -> Engine.run (registry ())) in
  let tracer = Relax_obs.Tracer.create () in
  let _, on =
    time (fun () ->
        Relax_obs.Tracer.Ambient.with_tracer tracer (fun () ->
            let results = Engine.run (registry ()) in
            Engine.record_trace tracer results))
  in
  Fmt.pr "claims/check-all-depth7          %8.1f ms  (tracing off)@."
    (off *. 1000.);
  Fmt.pr "claims/check-all-depth7-traced   %8.1f ms  (+%.2f%%, %d events)@."
    (on *. 1000.)
    ((on -. off) /. off *. 100.)
    (Relax_obs.Tracer.event_count tracer)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let all_rows =
  rows_larch @ rows_conformance @ rows_core @ rows_prob @ rows_sim
  @ rows_extensions @ rows_chaos @ rows_ldfi_lineage @ rows_ldfi_solver
  @ rows_journal @ rows_degrade @ rows_relax @ rows_claims @ rows_proof

let all_tests =
  Test.make_grouped ~name:"relax"
    (List.map
       (fun (name, fn) -> Test.make ~name (Staged.stage fn))
       all_rows)

(* --trace-dir: run every row once under an ambient tracer and write a
   Chrome trace_event artifact per row. *)
let profile_rows dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let sanitize name =
    String.map
      (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c
        | _ -> '_')
      name
  in
  List.iter
    (fun (name, fn) ->
      let tracer = Relax_obs.Tracer.create () in
      Relax_obs.Tracer.Ambient.with_tracer tracer fn;
      let path = Filename.concat dir (sanitize name ^ ".trace.json") in
      Relax_obs.Export.write_file path Relax_obs.Export.Chrome
        (Relax_obs.Tracer.events tracer);
      Fmt.pr "%-55s %6d events -> %s@." name
        (Relax_obs.Tracer.event_count tracer)
        path)
    all_rows

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let () =
  match Sys.argv with
  | [| _; "--trace-dir"; dir |] ->
    Fmt.pr "== relax bench self-profile (one run per row) ==@.";
    profile_rows dir;
    Fmt.pr "@.done: %d trace artifacts in %s@." (List.length all_rows) dir
  | _ ->
    Fmt.pr "== relax benchmark harness (ns per run, OLS) ==@.";
    let results = benchmark () in
    let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
    let rows =
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Fmt.pr "%-55s %14.1f ns/run@." name est
        | Some _ | None -> Fmt.pr "%-55s %14s@." name "n/a")
      rows;
    print_chaos_sweep ();
    print_ldfi_hunt ();
    print_degrade_sweep ();
    print_relax_throughput ();
    print_load_sweep ();
    print_proof_pipeline ();
    print_trace_overhead ();
    print_claim_stats ();
    Fmt.pr "@.done: %d benchmarks@." (List.length rows)
