open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica
module D = Relax_degrade
module Chaos = Relax_chaos
module Adaptive = Relax_experiments.Adaptive
module Degrade_x = Relax_experiments.Degrade_x

(* Tests for the live degradation controller (lib/degrade): the
   constraint monitors, the adaptive anti-entropy scheduler, the online
   conformance oracle, the hysteresis/breaker state machine, and the
   end-to-end properties of X-degrade (online verdict agrees with the
   post-hoc oracle, deterministic parallel sweeps, availability uplift,
   bounded mode switching). *)

let pq_assignment ~n =
  let maj = (n / 2) + 1 in
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = 0; final = maj });
      (Queue_ops.deq_name, { Assignment.initial = maj; final = maj });
    ]

let relaxed_assignment ~n =
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = 0; final = 1 });
      (Queue_ops.deq_name, { Assignment.initial = 1; final = 1 });
    ]

let run_op replica engine inv =
  let result = ref None in
  Replica.execute replica ~client_site:0 inv (fun r -> result := Some r);
  Relax_sim.Engine.run
    ~until:(Relax_sim.Engine.now engine +. 1_000.0)
    engine;
  !result

(* ------------------------------------------------------------------ *)
(* Monitors                                                            *)
(* ------------------------------------------------------------------ *)

(* The lag by its definition, recomputed in full on every call: the
   up sites whose log differs from the union of all logs. *)
let lag_definition replica =
  let global = Replica.global_log replica in
  List.length
    (List.filter
       (fun s -> not (Log.equal (Replica.site_log replica s) global))
       (Relax_sim.Network.up_sites (Replica.network replica)))

(* [Replica.lag] is memoized on a log version and the up-site list.  At
   every controller sample of seeded adaptive runs, volatile and
   journaled, it must equal the definition.  The journaled runs add the
   amnesia nemesis, so between them the runs invalidate the memo by
   every route: crash, journal recovery, wipe, gossip, absorbed updates
   and aborted attempts. *)
let lag_memo_test =
  Alcotest.test_case "memoized lag equals its definition at every sample"
    `Quick (fun () ->
      let module X = Relax_experiments.Chaos_scenarios in
      let adaptive = Result.get_ok (X.find "adaptive") in
      let samples = ref 0 and diverged = ref 0 in
      let recoveries = ref 0 and gossip = ref 0 and retries = ref 0 in
      let wipes = ref 0 and crashes = ref 0 in
      List.iter
        (fun (point, durable, nemeses) ->
          for seed = 1 to 6 do
            let config = { Chaos.Runner.default_config with seed; requests = 40 } in
            let trace = Result.get_ok (X.make_trace ~point ~nemeses ~config) in
            let run ?probe () =
              Chaos.Runner.run ~config ~durable ?probe
                ~client:(adaptive.X.client ~sites:config.sites)
                ~respond:Choosers.pq_eta trace.Chaos.Trace.events
            in
            let probe replica =
              incr samples;
              let memo = Replica.lag replica and def = lag_definition replica in
              if memo > 0 then incr diverged;
              if memo <> def then
                Alcotest.failf "%s seed %d, sample %d: memoized lag %d, definition %d"
                  point seed !samples memo def
            in
            let probed = run ~probe () in
            Alcotest.(check string)
              "the probe does not perturb the run" (run ()).digest probed.digest;
            recoveries := !recoveries + probed.recoveries;
            gossip := !gossip + probed.gossip_rounds;
            retries := !retries + probed.retries_used;
            List.iter
              (fun (e : Chaos.Fault.event) ->
                match e.action with
                | Chaos.Fault.Wipe _ -> incr wipes
                | Chaos.Fault.Crash _ -> incr crashes
                | _ -> ())
              trace.events
          done)
        [
          ("adaptive", false, X.default_nemeses);
          ("recover", true, X.default_nemeses @ [ "amnesia" ]);
        ];
      let covered name n = Alcotest.(check bool) name true (n > 0) in
      covered "samples" !samples;
      covered "samples with a positive lag" !diverged;
      covered "journal recoveries" !recoveries;
      covered "gossip rounds" !gossip;
      covered "aborted, retried attempts" !retries;
      covered "wipes" !wipes;
      covered "crashes" !crashes)

(* Each replica-level log write, called directly on a site the network
   still counts as up, must invalidate the memo on its own: in chaos
   runs a crash, a recovery or a wipe usually coincides with an up-set
   change, which would hide a write that forgot to. *)
let lag_write_test =
  Alcotest.test_case "every log write invalidates the memoized lag" `Quick
    (fun () ->
      let engine = Relax_sim.Engine.create ~seed:5 () in
      let net = Relax_sim.Network.create engine ~sites:3 in
      let replica =
        Replica.create engine net (pq_assignment ~n:3) ~respond:Choosers.pq_eta
      in
      Replica.enable_journals replica;
      let settle () =
        Replica.gossip replica;
        Relax_sim.Engine.run ~until:(Relax_sim.Engine.now engine +. 1_000.0) engine
      in
      let lags = ref [] in
      let check step =
        let memo = Replica.lag replica in
        Alcotest.(check int) step (lag_definition replica) memo;
        lags := memo :: !lags
      in
      List.iter
        (fun p ->
          ignore (run_op replica engine (Op.inv Queue_ops.enq_name ~args:[ Value.int p ])))
        [ 3; 1; 2 ];
      settle ();
      check "converged";
      Replica.wipe_site replica 1;
      check "after a wipe";
      settle ();
      check "after gossip";
      (* site 0 is in every final quorum, so its journal synced every
         entry: the crash empties its log and recovery restores it *)
      Replica.crash_site replica 0;
      check "after a journal crash";
      Replica.recover_site replica 0;
      check "after recovery";
      settle ();
      check "after gossip";
      (match
         Replica.checkpoint replica
           ~watermark:(Log.max_ts (Replica.global_log replica))
           ~summarize:Choosers.pq_summarize
       with
      | None -> Alcotest.fail "prefix should be stable after gossip"
      | Some _ -> ());
      check "after a checkpoint";
      Alcotest.(check bool) "some write made a site lag" true
        (List.exists (fun l -> l > 0) !lags))

let monitor_tests =
  [
    Alcotest.test_case "quorum reachability tracks crashes and partitions"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:11 () in
        let net = Relax_sim.Network.create engine ~sites:5 in
        let m =
          D.Monitor.quorum_reachability ~name:"quorums" ~net
            ~assignment:(pq_assignment ~n:5) ()
        in
        let s = D.Monitor.sample m in
        Alcotest.(check bool) "full mesh healthy" true s.D.Monitor.healthy;
        Alcotest.(check (float 0.0)) "fraction 1" 1.0 s.D.Monitor.value;
        (* 3 of 5 up: the majority quorum (3) is still assemblable *)
        Relax_sim.Network.crash net 3;
        Relax_sim.Network.crash net 4;
        Alcotest.(check bool)
          "bare majority still healthy" true
          (D.Monitor.sample m).D.Monitor.healthy;
        (* 2 of 5 up: nobody can assemble a majority *)
        Relax_sim.Network.crash net 2;
        let s = D.Monitor.sample m in
        Alcotest.(check bool) "minority unhealthy" false s.D.Monitor.healthy;
        Relax_sim.Network.recover net 2;
        Relax_sim.Network.recover net 3;
        Relax_sim.Network.recover net 4;
        (* a 2|3 partition: the minority cell's sites cannot reach a
           majority, so the fraction drops below 1 *)
        Relax_sim.Network.partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
        let s = D.Monitor.sample m in
        Alcotest.(check bool) "partition unhealthy" false s.D.Monitor.healthy;
        Alcotest.(check bool)
          "fraction strictly below 1" true
          (s.D.Monitor.value < 1.0);
        Relax_sim.Network.heal net;
        Alcotest.(check bool)
          "healed healthy" true
          (D.Monitor.sample m).D.Monitor.healthy);
    Alcotest.test_case "convergence lag counts sites behind the union"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:12 () in
        let net = Relax_sim.Network.create engine ~sites:4 in
        let replica =
          Replica.create engine net (relaxed_assignment ~n:4)
            ~respond:Choosers.pq_eta
        in
        let m = D.Monitor.convergence ~name:"converged" ~replica () in
        Alcotest.(check bool)
          "empty logs converged" true
          (D.Monitor.sample m).D.Monitor.healthy;
        (* a weak-quorum write inside one partition cell leaves the other
           cell behind the union *)
        Relax_sim.Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
        ignore
          (run_op replica engine
             (Op.inv Queue_ops.enq_name ~args:[ Value.int 5 ]));
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        let s = D.Monitor.sample m in
        Alcotest.(check bool) "diverged unhealthy" false s.D.Monitor.healthy;
        Alcotest.(check (float 0.0))
          "two sites lag" 2.0 s.D.Monitor.value;
        Relax_sim.Network.heal net;
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Alcotest.(check bool)
          "reconverged healthy" true
          (D.Monitor.sample m).D.Monitor.healthy);
    Alcotest.test_case "retry pressure reports deltas, not totals" `Quick
      (fun () ->
        let engine = Relax_sim.Engine.create ~seed:13 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create ~timeout:40.0 ~retries:2 engine net
            (pq_assignment ~n:3) ~respond:Choosers.pq_eta
        in
        let m =
          D.Monitor.retry_pressure ~name:"retry-pressure" ~budget:3 ~replica ()
        in
        Alcotest.(check bool)
          "quiet start healthy" true
          (D.Monitor.sample m).D.Monitor.healthy;
        (* crash the quorum: the next op burns its whole retry ladder *)
        Relax_sim.Network.crash net 1;
        Relax_sim.Network.crash net 2;
        ignore (run_op replica engine (Op.inv Queue_ops.deq_name));
        Alcotest.(check bool)
          "burned ladder unhealthy" false
          (D.Monitor.sample m).D.Monitor.healthy;
        (* the baseline moved with the previous sample: with no fresh
           traffic the pressure is back to zero *)
        Alcotest.(check bool)
          "no fresh traffic healthy again" true
          (D.Monitor.sample m).D.Monitor.healthy);
    Alcotest.test_case "recovery settles only after anti-entropy re-joins"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:14 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        Replica.enable_journals replica;
        let m = D.Monitor.recovery_settled ~name:"recovered" ~replica () in
        Alcotest.(check bool)
          "no recoveries healthy" true
          (D.Monitor.sample m).D.Monitor.healthy;
        ignore
          (run_op replica engine
             (Op.inv Queue_ops.enq_name ~args:[ Value.int 5 ]));
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Replica.crash_site replica 1;
        Replica.recover_site replica 1;
        let s = D.Monitor.sample m in
        Alcotest.(check bool)
          "recovering site blocks restoration" false s.D.Monitor.healthy;
        Alcotest.(check (float 0.0)) "one site recovering" 1.0
          s.D.Monitor.value;
        (* a laxer gate tolerates it *)
        let lax =
          D.Monitor.recovery_settled ~name:"lax" ~max_recovering:1 ~replica ()
        in
        Alcotest.(check bool)
          "within the allowance" true
          (D.Monitor.sample lax).D.Monitor.healthy;
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Alcotest.(check bool)
          "settled after re-join" true
          (D.Monitor.sample m).D.Monitor.healthy);
    lag_memo_test;
    lag_write_test;
  ]

(* ------------------------------------------------------------------ *)
(* Adaptive anti-entropy                                               *)
(* ------------------------------------------------------------------ *)

let anti_entropy_tests =
  [
    Alcotest.test_case
      "backs off while partitioned, reconverges and resets after heal"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:14 () in
        let net = Relax_sim.Network.create engine ~sites:4 in
        let replica =
          Replica.create engine net (relaxed_assignment ~n:4)
            ~respond:Choosers.pq_eta
        in
        let ae =
          D.Anti_entropy.create ~check_every:50.0 ~min_interval:50.0
            ~max_interval:400.0 engine replica
        in
        D.Anti_entropy.install ae;
        (* converged: the loop stays quiet *)
        Relax_sim.Engine.run ~until:500.0 engine;
        Alcotest.(check int) "quiet while converged" 0 (D.Anti_entropy.rounds ae);
        (* diverge inside a partition: rounds fire but cannot help, so
           the interval backs off to the cap *)
        Relax_sim.Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
        ignore
          (run_op replica engine
             (Op.inv Queue_ops.enq_name ~args:[ Value.int 7 ]));
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 3_000.0)
          engine;
        Alcotest.(check bool)
          "rounds fired" true
          (D.Anti_entropy.rounds ae > 0);
        Alcotest.(check (float 0.0))
          "backed off to the cap" 400.0 (D.Anti_entropy.interval ae);
        Alcotest.(check bool)
          "still diverged" true
          (D.Monitor.lag replica > 0);
        (* heal: the next productive round converges the logs and snaps
           the backoff to the floor *)
        Relax_sim.Network.heal net;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 3_000.0)
          engine;
        Alcotest.(check int) "reconverged" 0 (D.Monitor.lag replica);
        Alcotest.(check (float 0.0))
          "backoff reset" 50.0 (D.Anti_entropy.interval ae);
        D.Anti_entropy.stop ae);
  ]

(* ------------------------------------------------------------------ *)
(* Online conformance oracle                                           *)
(* ------------------------------------------------------------------ *)

let online_tests =
  [
    Alcotest.test_case "flags the causing operation and freezes" `Quick
      (fun () ->
        let o = D.Online.of_automaton Adaptive.combined in
        D.Online.step o (Queue_ops.enq_int 1);
        D.Online.step o (Queue_ops.deq_int 1);
        Alcotest.(check bool) "legal prefix conforms" true (D.Online.conforms o);
        (* in preferred mode a Deq of a never-enqueued item is outside
           the language: flagged exactly here *)
        D.Online.step o (Queue_ops.deq_int 9);
        (match D.Online.violation o with
        | None -> Alcotest.fail "expected a violation"
        | Some v ->
          Alcotest.(check int) "at index 2" 2 v.D.Online.index;
          Alcotest.(check int)
            "prefix ends at the culprit" 3
            (History.length v.D.Online.prefix);
          Alcotest.(check bool)
            "post-hoc replay rejects the same prefix" false
            (Automaton.accepts Adaptive.combined v.D.Online.prefix));
        (* frozen: later legal operations cannot launder the verdict *)
        D.Online.step o (Queue_ops.enq_int 2);
        Alcotest.(check bool) "still rejected" false (D.Online.conforms o);
        Alcotest.(check int) "seen stops at the culprit" 3
          (History.length (D.Online.seen o)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"agrees with Automaton.accepts on random input"
         ~count:60
         (QCheck.list_of_size (QCheck.Gen.int_bound 8)
            (QCheck.int_range 1 3))
         (fun picks ->
           (* an arbitrary mix of enqueues and dequeues over a tiny value
              space: some conform, some do not — the two oracles must
              agree either way *)
           let h =
             List.mapi
               (fun i v ->
                 if i mod 2 = 0 then Queue_ops.enq_int v
                 else Queue_ops.deq_int v)
               picks
           in
           let o = D.Online.of_automaton Adaptive.combined in
           D.Online.feed o h;
           D.Online.conforms o = Automaton.accepts Adaptive.combined h));
  ]

(* ------------------------------------------------------------------ *)
(* Controller: hysteresis and the circuit breaker                      *)
(* ------------------------------------------------------------------ *)

(* A controller over a 5-site replica whose only constraint is quorum
   reachability, with the standard restore gate. *)
let make_controller ?config ?emit engine net =
  let preferred = pq_assignment ~n:5 in
  let replica =
    Replica.create engine net preferred ~respond:Choosers.pq_eta
  in
  let c =
    D.Controller.create ?config ~replica
      ~constraints:
        [
          D.Monitor.quorum_reachability ~name:"quorums" ~net
            ~assignment:preferred ();
        ]
      ~restore_gate:
        [
          D.Monitor.convergence ~name:"converged" ~replica ();
          D.Monitor.quorum_reachability ~name:"quorums" ~net
            ~assignment:preferred ();
        ]
      ~preferred ~degraded:(relaxed_assignment ~n:5) ?emit ()
  in
  (c, replica)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let controller_tests =
  [
    Alcotest.test_case
      "degrades fail-fast, restores only after streak + dwell + gate"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:15 () in
        let net = Relax_sim.Network.create engine ~sites:5 in
        let events = ref [] in
        let c, _replica =
          make_controller engine net ~emit:(fun ~degraded ->
              events := degraded :: !events)
        in
        D.Controller.install c;
        Alcotest.(check bool) "starts preferred" false (D.Controller.degraded c);
        (* lose the majority: one unhealthy sample sheds immediately *)
        Relax_sim.Network.crash net 2;
        Relax_sim.Network.crash net 3;
        Relax_sim.Network.crash net 4;
        D.Controller.tick c;
        Alcotest.(check bool) "degraded after one sample" true
          (D.Controller.degraded c);
        Alcotest.(check int) "one switch" 1 (D.Controller.switch_count c);
        (* health returns, but a single healthy sample must NOT restore:
           the streak, the dwell and the gate all have to pass *)
        Relax_sim.Network.recover net 2;
        Relax_sim.Network.recover net 3;
        Relax_sim.Network.recover net 4;
        D.Controller.tick c;
        D.Controller.before_op c;
        Alcotest.(check bool) "still degraded right after recovery" true
          (D.Controller.degraded c);
        (* let the sampling loop accumulate the streak and the dwell *)
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 2_000.0)
          engine;
        D.Controller.before_op c;
        Alcotest.(check bool) "restored eventually" false
          (D.Controller.degraded c);
        Alcotest.(check int) "two switches" 2 (D.Controller.switch_count c);
        Alcotest.(check int)
          "emitted one Degrade and one Restore" 2
          (List.length !events);
        Alcotest.(check (list bool))
          "in order" [ true; false ] (List.rev !events);
        Alcotest.(check int)
          "one restore latency recorded" 1
          (List.length (D.Controller.time_to_restore c));
        D.Controller.stop c);
    Alcotest.test_case "the retry-budget breaker trips and degrades" `Quick
      (fun () ->
        let engine = Relax_sim.Engine.create ~seed:16 () in
        let net = Relax_sim.Network.create engine ~sites:5 in
        let c, _replica = make_controller engine net in
        (* constraints stay healthy throughout: only failures trip it *)
        D.Controller.op_started c;
        D.Controller.op_finished c D.Controller.Op_failed;
        D.Controller.op_started c;
        D.Controller.op_finished c D.Controller.Op_refused;
        Alcotest.(check bool)
          "refusals are not faults" false
          (D.Controller.breaker_open c);
        D.Controller.op_started c;
        D.Controller.op_finished c D.Controller.Op_failed;
        D.Controller.op_started c;
        D.Controller.op_finished c D.Controller.Op_failed;
        Alcotest.(check bool) "tripped at budget" true
          (D.Controller.breaker_open c);
        Alcotest.(check bool) "shed to degraded" true
          (D.Controller.degraded c);
        (match D.Controller.transitions c with
        | [ t ] ->
          Alcotest.(check bool) "cause names the breaker" true
            (contains ~affix:"breaker" t.D.Controller.cause)
        | ts ->
          Alcotest.fail
            (Fmt.str "expected exactly one transition, got %d"
               (List.length ts))));
  ]

(* ------------------------------------------------------------------ *)
(* X-degrade end-to-end properties                                     *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Chaos.Runner.default_config with requests = 12 }

let sweep_exn ?jobs ?config ~runs ~seed ~nemeses () =
  match Degrade_x.sweep ?jobs ?config ~runs ~seed ~nemeses () with
  | Ok report -> report
  | Error e -> Alcotest.failf "sweep failed: %s" e

let degrade_x_tests =
  [
    Alcotest.test_case
      "online verdict agrees with the post-hoc oracle across seeds" `Slow
      (fun () ->
        (* the acceptance property: controller histories replay through
           the combined automaton, and the incremental verdict matches
           the post-hoc one, over >= 5 seeds of full-nemesis chaos *)
        let report =
          sweep_exn ~jobs:1 ~config:small_config ~runs:5 ~seed:1
            ~nemeses:Relax_experiments.Chaos_scenarios.default_nemeses ()
        in
        Alcotest.(check int) "no conformance violations" 0 report.Degrade_x.violations;
        Alcotest.(check int)
          "no online disagreements" 0 report.Degrade_x.online_disagreements;
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Fmt.str "seed %d online agrees" c.Degrade_x.seed)
              true c.Degrade_x.online_agrees)
          report.Degrade_x.comparisons;
        (* the hysteresis promise: switching is bounded per run *)
        Alcotest.(check bool)
          (Fmt.str "switches %d within bound %d" report.Degrade_x.max_switches
             report.Degrade_x.switch_limit)
          true
          (report.Degrade_x.max_switches <= report.Degrade_x.switch_limit));
    Alcotest.test_case "sweep is deterministic at any job count" `Slow
      (fun () ->
        let digests report =
          List.concat_map
            (fun c ->
              [
                c.Degrade_x.controlled.Chaos.Runner.digest;
                c.Degrade_x.static_top.Chaos.Runner.digest;
                c.Degrade_x.static_bottom.Chaos.Runner.digest;
              ])
            report.Degrade_x.comparisons
        in
        let seq =
          sweep_exn ~jobs:1 ~config:small_config ~runs:3 ~seed:42
            ~nemeses:[ "partition" ] ()
        in
        let par =
          sweep_exn ~jobs:4 ~config:small_config ~runs:3 ~seed:42
            ~nemeses:[ "partition" ] ()
        in
        Alcotest.(check (list string))
          "identical digests" (digests seq) (digests par));
    Alcotest.test_case
      "the controller outlives static preferred under partitions" `Slow
      (fun () ->
        (* same parameters as the degrade/availability claim, which the
           registry checks end to end: the controlled client completes
           strictly more operations than the static top under the same
           partition schedules *)
        let report =
          sweep_exn ~jobs:4 ~runs:8 ~seed:42 ~nemeses:[ "partition" ] ()
        in
        let total f =
          List.fold_left
            (fun acc c -> acc + (f c).Chaos.Runner.completed)
            0 report.Degrade_x.comparisons
        in
        let controlled = total (fun c -> c.Degrade_x.controlled)
        and top = total (fun c -> c.Degrade_x.static_top) in
        Alcotest.(check bool)
          (Fmt.str "controlled %d > static top %d" controlled top)
          true
          (controlled > top);
        Alcotest.(check int) "and stays in the language" 0
          report.Degrade_x.violations);
    Alcotest.test_case "quantile is nearest-rank" `Quick (fun () ->
        Alcotest.(check (float 0.0))
          "p50 of 1..3" 2.0
          (Degrade_x.quantile 0.5 [ 3.0; 1.0; 2.0 ]);
        Alcotest.(check (float 0.0))
          "p99 of 1..4" 4.0
          (Degrade_x.quantile 0.99 [ 4.0; 1.0; 3.0; 2.0 ]);
        Alcotest.(check bool)
          "empty is nan" true
          (Float.is_nan (Degrade_x.quantile 0.5 [])));
  ]

let hysteresis_tests =
  let config =
    { D.Hysteresis.degrade_after = 2; restore_after = 3; min_dwell = 5.0 }
  in
  [
    Alcotest.test_case "streaks reset each other" `Quick (fun () ->
        let h = D.Hysteresis.create config in
        D.Hysteresis.sample h ~now:1.0 ~healthy:false;
        D.Hysteresis.sample h ~now:2.0 ~healthy:false;
        Alcotest.(check int) "bad streak" 2 (D.Hysteresis.bad_streak h);
        D.Hysteresis.sample h ~now:3.0 ~healthy:true;
        Alcotest.(check int) "bad cleared" 0 (D.Hysteresis.bad_streak h);
        Alcotest.(check int) "good started" 1 (D.Hysteresis.good_streak h));
    Alcotest.test_case "degrade is fail-fast, restore dwells" `Quick
      (fun () ->
        let h = D.Hysteresis.create config in
        D.Hysteresis.sample h ~now:0.5 ~healthy:false;
        Alcotest.(check bool) "one bad not enough" false
          (D.Hysteresis.degrade_ready h);
        D.Hysteresis.sample h ~now:1.0 ~healthy:false;
        (* No dwell gate on the shedding side, even this early. *)
        Alcotest.(check bool) "two bad shed" true (D.Hysteresis.degrade_ready h);
        let latency = D.Hysteresis.commit h ~now:1.0 `Degrade in
        Alcotest.(check (float 1e-9)) "episode latency" 0.5 latency;
        List.iter
          (fun now -> D.Hysteresis.sample h ~now ~healthy:true)
          [ 2.0; 3.0; 4.0 ];
        Alcotest.(check bool)
          "streak met but dwelling" false
          (D.Hysteresis.restore_ready h ~now:4.0);
        Alcotest.(check bool)
          "past the dwell" true
          (D.Hysteresis.restore_ready h ~now:6.5));
    Alcotest.test_case "commit clears state for the next episode" `Quick
      (fun () ->
        let h = D.Hysteresis.create config in
        List.iter
          (fun now -> D.Hysteresis.sample h ~now ~healthy:true)
          [ 6.0; 7.0; 8.0 ];
        ignore (D.Hysteresis.commit h ~now:8.0 `Restore);
        Alcotest.(check int) "good cleared" 0 (D.Hysteresis.good_streak h);
        Alcotest.(check (float 1e-9))
          "transition stamped" 8.0
          (D.Hysteresis.last_transition h);
        D.Hysteresis.sample h ~now:9.0 ~healthy:false;
        D.Hysteresis.sample h ~now:9.5 ~healthy:false;
        Alcotest.(check bool) "re-armed" true (D.Hysteresis.degrade_ready h));
    Alcotest.test_case "mark_unhealthy opens an episode without a streak"
      `Quick (fun () ->
        let h = D.Hysteresis.create config in
        D.Hysteresis.mark_unhealthy h ~now:3.0;
        Alcotest.(check int) "no streak" 0 (D.Hysteresis.bad_streak h);
        Alcotest.(check (float 1e-9))
          "episode start carried into commit" 1.5
          (D.Hysteresis.commit h ~now:4.5 `Degrade));
    Alcotest.test_case "validate rejects bad configs" `Quick (fun () ->
        List.iter
          (fun bad ->
            Alcotest.(check bool)
              "rejected" true
              (match D.Hysteresis.validate bad with
              | () -> false
              | exception Invalid_argument _ -> true))
          [
            { config with D.Hysteresis.degrade_after = 0 };
            { config with D.Hysteresis.restore_after = 0 };
            { config with D.Hysteresis.min_dwell = -1.0 };
          ]);
  ]

let () =
  Alcotest.run "degrade"
    [
      ("monitor", monitor_tests);
      ("hysteresis", hysteresis_tests);
      ("anti-entropy", anti_entropy_tests);
      ("online", online_tests);
      ("controller", controller_tests);
      ("degrade-x", degrade_x_tests);
    ]
