open Relax_experiments

(* Integration tests: every experiment of EXPERIMENTS.md must pass at
   reduced scale.  These are the same entry points `rlx check all` runs;
   keeping them in the test-suite means `dune runtest` certifies the whole
   reproduction. *)

let alphabet = Relax_objects.Queue_ops.alphabet (Relax_objects.Queue_ops.universe 2)
let null = Fmt.with_buffer (Buffer.create 512)

let check name f = Alcotest.test_case name `Slow (fun () ->
    Alcotest.(check bool) "experiment passes" true (f ()))

let experiment_tests =
  [
    check "Section 3.3 lattice checks (incl. Theorem 4 and DPQ)" (fun () ->
        Pq_checks.run ~alphabet ~depth:4 null ());
    check "Section 4.2 collapses" (fun () ->
        Collapse_checks.run ~alphabet ~depth:4 null ());
    check "Section 3.4 account lattice (language level)" (fun () ->
        Account_checks.run ~depth:3 null ());
    check "Section 3.1 replicated FIFO queue characterization" (fun () ->
        Fifo_checks.run ~alphabet ~depth:4 null ());
    check "Markov environment composes with the functional model" (fun () ->
        Markov_env.run ~requests:120 null ());
    check "partition: preferred blocks minority, relaxed diverges" (fun () ->
        Partition.run null ());
    check "stable storage is load-bearing (amnesia breaks the guarantee)"
      (fun () -> Amnesia.run ~runs:3 null ());
    Alcotest.test_case "adaptive runs are accepted by the combined automaton"
      `Slow (fun () ->
        (* several seeds: every adaptive run, whatever its mode switches,
           must be accepted by the Section 2.3 combined automaton *)
        List.iter
          (fun seed ->
            let _, verdict =
              Adaptive.run_once
                ~config:{ Adaptive.default_config with seed; requests = 20 }
                ()
            in
            if not (Relax_chaos.Oracle.conforms verdict) then
              Alcotest.failf "seed %d rejected: %a" seed Relax_chaos.Oracle.pp
                verdict)
          [ 31; 32; 33; 34; 35 ]);
    (* depth 4 is the least depth distinguishing Semiqueue_2 from
       Semiqueue_3 (three enqueues plus a dequeue of the third item) *)
    check "Figure 4-2 table" (fun () -> Fig42.run ~alphabet ~depth:4 null ());
    check "0.1^n probabilistic claim (P3-3)" (fun () ->
        Topn_check.run ~trials:40_000 ~max_n:3 null ());
    check "availability table and cross-check (X-av)" (fun () ->
        Availability.run null ());
    check "taxi dispatch degradation (X-deg)" (fun () ->
        let config = { Taxi.default_config with requests = 15; seed = 7 } in
        let outcomes = Taxi.run_all ~config () in
        List.for_all (fun o -> o.Taxi.history_ok) outcomes);
    check "bank account safety (B3-4)" (fun () ->
        let params = { Atm.default_params with rounds = 10; seed = 7 } in
        let outcomes =
          List.map
            (fun tt -> Atm.run_once ~params ~relax_a2:false ~think_time:tt ())
            [ 0.0; 100.0 ]
        in
        List.for_all (fun o -> o.Atm.never_overdrawn) outcomes);
    check "spooler atomicity at predicted points (A4-2)" (fun () ->
        List.for_all
          (fun (policy, k) ->
            let o = Spooler.run_one ~items:8 ~seed:19 policy ~k in
            o.Spooler.atomic_predicted)
          [
            (Relax_txn.Spool.Locking, 2);
            (Relax_txn.Spool.Optimistic, 2);
            (Relax_txn.Spool.Optimistic, 3);
            (Relax_txn.Spool.Pessimistic, 2);
            (Relax_txn.Spool.Pessimistic, 3);
          ]);
    check "Figure 5-1 summary chart" (fun () -> Fig51.run null ());
  ]

(* The four lattice points are named once, in Taxi: the chaos scenarios
   and `rlx load --point` resolve their points through that table. *)
let point_tests =
  let thresholds a =
    List.map
      (fun op -> (op, Relax_quorum.Assignment.thresholds a op))
      (Relax_quorum.Assignment.operations a)
  in
  [
    Alcotest.test_case "points are named top, q1, q2, bottom in order" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "names" [ "top"; "q1"; "q2"; "bottom" ] Taxi.point_names;
        List.iter
          (fun n ->
            List.iter
              (fun (p : Taxi.point) ->
                let q = Taxi.point ~n p.name in
                Alcotest.(check string) "label" p.label q.label;
                Alcotest.(check bool)
                  "cset" true
                  (Relax_core.Cset.equal p.cset q.cset))
              (Taxi.points ~n))
          [ 3; 5 ];
        Alcotest.check_raises "unknown name" Not_found (fun () ->
            ignore (Taxi.point ~n:5 "recover")));
    Alcotest.test_case "fixed chaos scenarios run and are judged by name"
      `Quick (fun () ->
        List.iter
          (fun (name, runs, judged_by) ->
            match Chaos_scenarios.find name with
            | Error e -> Alcotest.fail e
            | Ok sc -> (
              Alcotest.(check string)
                (name ^ " lattice")
                (Relax_core.Cset.to_string (Taxi.point ~n:5 judged_by).cset)
                sc.Chaos_scenarios.lattice;
              match sc.Chaos_scenarios.client ~sites:3 with
              | Relax_chaos.Runner.Fixed a ->
                Alcotest.(check bool)
                  (name ^ " assignment") true
                  (thresholds a
                  = thresholds (Taxi.point ~n:3 runs).Taxi.assignment)
              | Relax_chaos.Runner.Controlled _ ->
                Alcotest.fail (name ^ ": expected a fixed client")))
          [
            ("top", "top", "top"); ("q1", "q1", "q1"); ("q2", "q2", "q2");
            ("bottom", "bottom", "bottom"); ("recover", "top", "top");
            ("lost", "top", "bottom");
          ]);
  ]

(* The taxi and adaptive case studies are chaos runs: at their default
   configs each yields the digest of the chaos scenario it names, run
   under the crash nemesis alone — and that trace replays to the same
   digest after a serialization round trip. *)
let scenario_digest ~point config =
  let digest trace =
    match Chaos_scenarios.run_trace trace with
    | Ok (result, _) -> result.Relax_chaos.Runner.digest
    | Error e -> Alcotest.fail e
  in
  match Chaos_scenarios.make_trace ~point ~nemeses:[ "crash" ] ~config with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    let d = digest trace in
    Alcotest.(check string)
      (point ^ " replays after a round trip")
      d
      (digest
         (Relax_chaos.Trace.of_string (Relax_chaos.Trace.to_string trace)));
    d

let case_study_tests =
  [
    Alcotest.test_case "each taxi point is its chaos scenario's run" `Slow
      (fun () ->
        List.iter
          (fun (p : Taxi.point) ->
            Alcotest.(check string)
              (p.name ^ " digest")
              (scenario_digest ~point:p.name Taxi.default_config)
              (Taxi.run_point p).Taxi.result.digest)
          (Taxi.points ~n:Taxi.default_config.sites));
    Alcotest.test_case "the adaptive run is the adaptive scenario's run" `Slow
      (fun () ->
        let result, _ = Adaptive.run_once () in
        Alcotest.(check string)
          "adaptive digest"
          (scenario_digest ~point:"adaptive" Adaptive.default_config)
          result.Relax_chaos.Runner.digest);
  ]

(* Determinism: experiments are reproducible from their seeds. *)
let determinism_tests =
  [
    Alcotest.test_case "taxi runs are deterministic" `Slow (fun () ->
        let config = { Taxi.default_config with requests = 12; seed = 5 } in
        let point = List.hd (Taxi.points ~n:5) in
        let a = Taxi.run_point ~config point in
        let b = Taxi.run_point ~config point in
        Alcotest.(check int) "served" a.Taxi.served b.Taxi.served;
        Alcotest.(check int) "unavailable" a.Taxi.result.unavailable
          b.Taxi.result.unavailable;
        Alcotest.(check (float 1e-9)) "latency" a.Taxi.mean_latency
          b.Taxi.mean_latency;
        Alcotest.(check string) "digest" a.Taxi.result.digest
          b.Taxi.result.digest);
    Alcotest.test_case "workload runs are deterministic" `Quick (fun () ->
        let params =
          { Relax_txn.Workload.items = 8; max_dequeuers = 3;
            abort_probability = 0.3; seed = 23 }
        in
        let a = Relax_txn.Workload.run ~params Relax_txn.Spool.Optimistic in
        let b = Relax_txn.Workload.run ~params Relax_txn.Spool.Optimistic in
        Alcotest.(check bool)
          "same schedule" true
          (Relax_txn.Schedule.equal a.Relax_txn.Workload.schedule
             b.Relax_txn.Workload.schedule));
  ]

let load_tests =
  let strip (o : Load.outcome) =
    (* wall-clock fields are the one machine-dependent output *)
    { o with Load.wall_s = 0.0; ops_per_sec = 0.0 }
  in
  let small =
    { Load.default_params with ops = 4_000; shards = 4; seed = 17 }
  in
  [
    Alcotest.test_case "load outcomes are independent of jobs" `Slow (fun () ->
        let a = List.map strip (Load.run ~jobs:1 ~params:small ())
        and b = List.map strip (Load.run ~jobs:4 ~params:small ()) in
        List.iter2
          (fun (x : Load.outcome) y ->
            Alcotest.(check string) "label" x.Load.label y.Load.label;
            Alcotest.(check int) "completed" x.Load.completed y.Load.completed;
            Alcotest.(check int) "unavailable" x.Load.unavailable
              y.Load.unavailable;
            Alcotest.(check (float 1e-9)) "p99" x.Load.p99 y.Load.p99)
          a b);
    Alcotest.test_case "every client op is accounted for" `Slow (fun () ->
        List.iter
          (fun (o : Load.outcome) ->
            Alcotest.(check int) "completed + unavailable" o.Load.ops
              (o.Load.completed + o.Load.unavailable))
          (Load.run ~jobs:1 ~params:small ()));
    Alcotest.test_case "closed-loop outcomes are independent of jobs" `Slow
      (fun () ->
        let closed = { small with Load.closed = true; concurrency = 8 } in
        let a = List.map strip (Load.run ~jobs:1 ~params:closed ())
        and b = List.map strip (Load.run ~jobs:4 ~params:closed ()) in
        List.iter2
          (fun (x : Load.outcome) y ->
            Alcotest.(check string) "label" x.Load.label y.Load.label;
            Alcotest.(check int) "completed" x.Load.completed y.Load.completed;
            Alcotest.(check int) "unavailable" x.Load.unavailable
              y.Load.unavailable;
            Alcotest.(check (float 1e-9)) "p99" x.Load.p99 y.Load.p99)
          a b);
    Alcotest.test_case "closed loop accounts for every op and admits" `Slow
      (fun () ->
        let closed = { small with Load.closed = true; concurrency = 8 } in
        List.iter
          (fun (o : Load.outcome) ->
            Alcotest.(check int) "completed + unavailable" o.Load.ops
              (o.Load.completed + o.Load.unavailable))
          (Load.run ~jobs:1 ~params:closed ()));
    Alcotest.test_case "closed and open loops are different schedules" `Slow
      (fun () ->
        (* the admission valve must actually change the run: a closed
           loop with one client serializes everything *)
        let serial = { small with Load.closed = true; concurrency = 1 } in
        let a = List.map strip (Load.run ~jobs:1 ~params:serial ())
        and b = List.map strip (Load.run ~jobs:1 ~params:small ()) in
        Alcotest.(check bool) "some point differs" true (a <> b));
  ]

(* ------------------------------------------------------------------ *)
(* The time-travel debugger                                            *)
(* ------------------------------------------------------------------ *)

(* The exact fixture of test/gen_golden/gen_golden.ml: a small
   recover-point run and a script that walks the timeline forwards and
   backwards.  The transcript must match the committed golden
   byte-for-byte. *)
let debug_script_lines =
  [ "i"; "n 5"; "f"; "p"; "b 2"; "f"; "g 0"; "l"; "n 200"; "q" ]

let debug_session () =
  let module X = Chaos_scenarios in
  let config =
    {
      Relax_chaos.Runner.default_config with
      sites = 3;
      requests = 4;
      gossip_every = 2;
      seed = 7;
    }
  in
  match
    X.make_trace ~point:"recover" ~nemeses:X.default_nemeses ~config
  with
  | Error e -> Alcotest.fail e
  | Ok trace -> (
    match Debug.session_of_trace trace with
    | Error e -> Alcotest.fail e
    | Ok session -> (trace, session))

let run_debug_script session =
  let script = Filename.temp_file "rlx-debug" ".script" in
  let oc = open_out script in
  List.iter (fun l -> output_string oc (l ^ "\n")) debug_script_lines;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove script)
    (fun () ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      Debug.run_script ppf session script;
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let debug_tests =
  [
    Alcotest.test_case "scripted session matches the golden transcript" `Slow
      (fun () ->
        let _, session = debug_session () in
        Alcotest.(check string)
          "matches golden/debug_script.txt"
          (read_file "golden/debug_script.txt")
          (run_debug_script session));
    Alcotest.test_case "the timeline's state snapshots are coherent" `Slow
      (fun () ->
        (* every step snapshots the state *after* it, so stepping to any
           index — in either direction — is a plain array read.  The
           snapshots must therefore satisfy the run's invariants on
           their own, with no walk-order to hide behind. *)
        let _, session = debug_session () in
        let steps = session.Debug.steps in
        let n = Array.length steps in
        Alcotest.(check bool) "timeline is non-trivial" true (n > 10);
        (* the history prefix only ever grows *)
        for i = 1 to n - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "hist monotone at %d" i)
            true
            (steps.(i).Debug.hist >= steps.(i - 1).Debug.hist)
        done;
        (* by the end of the run every copy was delivered or dropped and
           the whole judged history has been consumed *)
        Alcotest.(check (list string))
          "no copy left in flight" []
          (List.map Debug.copy_to_string steps.(n - 1).Debug.pending);
        Alcotest.(check int)
          "final prefix is the whole history"
          (Array.length session.Debug.ops)
          steps.(n - 1).Debug.hist;
        (* every prefix's frontier is precomputed, including the empty
           one, and a conforming run never hits an empty frontier *)
        Alcotest.(check int)
          "frontiers cover every prefix"
          (Array.length session.Debug.ops + 1)
          (Array.length session.Debug.frontiers);
        Array.iteri
          (fun k f ->
            Alcotest.(check bool)
              (Printf.sprintf "frontier %d non-empty" k)
              true (f <> []))
          session.Debug.frontiers);
    Alcotest.test_case "recordings round-trip through the journal file" `Slow
      (fun () ->
        let trace, _ = debug_session () in
        let path = Filename.temp_file "rlx-rec" ".rec" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Debug.save_recording path trace;
            Alcotest.(check bool)
              "file is a recording" true (Debug.is_recording path);
            match Debug.load_recording path with
            | Error e -> Alcotest.fail e
            | Ok trace' ->
              Alcotest.(check string)
                "trace survives the round-trip"
                (Relax_chaos.Trace.to_string trace)
                (Relax_chaos.Trace.to_string trace')));
  ]

let () =
  Alcotest.run "experiments"
    [
      ("experiments", experiment_tests);
      ("points", point_tests);
      ("case studies", case_study_tests);
      ("determinism", determinism_tests);
      ("load", load_tests);
      ("debug", debug_tests);
    ]
