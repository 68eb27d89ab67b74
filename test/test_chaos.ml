module Chaos = Relax_chaos
module Sexp = Chaos.Sexp
module Fault = Chaos.Fault
module Nemesis = Chaos.Nemesis
module Trace = Chaos.Trace
module Oracle = Chaos.Oracle
module Shrink = Chaos.Shrink
module Runner = Chaos.Runner
module Scenarios = Relax_experiments.Chaos_scenarios

(* Tests for the deterministic chaos engine: the s-expression codec, the
   fault vocabulary and its shadow, nemesis schedule generation, trace
   record/replay determinism, the conformance oracle, the delta-
   debugging shrinker (on a genuinely planted violation — amnesia at
   the preferred point — and on an injected-oracle-bug fixture), and
   lattice conformance across seeds as a property. *)

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Sexp codec                                                          *)
(* ------------------------------------------------------------------ *)

let sexp_tests =
  [
    Alcotest.test_case "print/parse round-trip" `Quick (fun () ->
        let t =
          Sexp.List
            [
              Sexp.atom "a";
              Sexp.List [ Sexp.int 42; Sexp.float 0.1; Sexp.atom "b c" ];
              Sexp.atom "quote\"me";
              Sexp.List [];
            ]
        in
        let s = Sexp.to_string t in
        Alcotest.(check string)
          "fixpoint" s
          (Sexp.to_string (Sexp.of_string s)));
    Alcotest.test_case "floats round-trip exactly" `Quick (fun () ->
        List.iter
          (fun f ->
            match Sexp.of_string (Sexp.to_string (Sexp.float f)) with
            | Sexp.Atom a ->
              Alcotest.(check (float 0.0)) "exact" f (float_of_string a)
            | Sexp.List _ -> Alcotest.fail "expected atom")
          [ 0.1; 1.0 /. 3.0; 400.0; 1e-17; 123456.789012345678 ]);
    Alcotest.test_case "whitespace and comments tolerated" `Quick (fun () ->
        match Sexp.of_string "( a ; comment\n  (b 2) )" with
        | Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "2" ] ]
          -> ()
        | _ -> Alcotest.fail "unexpected parse");
    Alcotest.test_case "malformed input raises" `Quick (fun () ->
        List.iter
          (fun s ->
            match Sexp.of_string s with
            | exception Sexp.Parse_error _ -> ()
            | _ -> Alcotest.fail ("should not parse: " ^ s))
          [
            "("; ")"; "(a))"; "\"unterminated"; ""; "a b"; "; only comment";
            "(a \"b)"; "(\"x\\"; "   \t\n  ";
          ]);
    Alcotest.test_case "atoms starting with ';' quote instead of commenting"
      `Quick (fun () ->
        (* a bare leading ';' would re-read as a line comment and
           swallow the rest of the line — the printer must quote it *)
        List.iter
          (fun a ->
            let t = Sexp.List [ Sexp.atom a; Sexp.int 1 ] in
            match Sexp.of_string (Sexp.to_string t) with
            | Sexp.List [ Sexp.Atom a'; Sexp.Atom "1" ] ->
              Alcotest.(check string) "atom preserved" a a'
            | _ -> Alcotest.fail ("unexpected shape for atom " ^ a))
          [ ";"; ";comment"; "a;b"; ";;" ]);
    (let rec sexp_equal a b =
       match (a, b) with
       | Sexp.Atom x, Sexp.Atom y -> String.equal x y
       | Sexp.List xs, Sexp.List ys ->
         List.length xs = List.length ys && List.for_all2 sexp_equal xs ys
       | _ -> false
     in
     let nasty_atom =
       (* every character class the codec treats specially: quoting
          triggers, escapes, comment starts, digits and floats *)
       QCheck.Gen.(
         string_size ~gen:
           (oneofl
              [
                'a'; 'z'; 'A'; '0'; '9'; '-'; '.'; '_'; '#'; '>'; '@'; ' ';
                '('; ')'; '"'; ';'; '\\'; '\n'; '\t';
              ])
           (0 -- 10))
     in
     let sexp_gen =
       QCheck.Gen.(
         sized @@ fix (fun self n ->
             if n = 0 then map Sexp.atom nasty_atom
             else
               frequency
                 [
                   (2, map Sexp.atom nasty_atom);
                   (1, map (fun l -> Sexp.List l)
                        (list_size (0 -- 4) (self (n / 2))));
                 ]))
     in
     qtest
       (QCheck.Test.make ~count:1000
          ~name:"fuzz: print/parse round-trips any tree structurally"
          (QCheck.make ~print:Sexp.to_string sexp_gen)
          (fun t -> sexp_equal t (Sexp.of_string (Sexp.to_string t)))));
  ]

(* ------------------------------------------------------------------ *)
(* Fault actions and the shadow                                        *)
(* ------------------------------------------------------------------ *)

let all_actions =
  [
    Fault.Crash 3;
    Fault.Recover 0;
    Fault.Wipe 2;
    Fault.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ];
    Fault.Heal;
    Fault.Drop 0.25;
    Fault.Duplicate 0.3;
    Fault.Delay 25.0;
    Fault.Skew (1, 12.5);
  ]

let fault_tests =
  [
    Alcotest.test_case "action sexp round-trip" `Quick (fun () ->
        List.iter
          (fun a ->
            let a' = Fault.action_of_sexp (Fault.action_to_sexp a) in
            Alcotest.(check bool)
              (Fmt.str "%a" Fault.pp_action a)
              true (Fault.equal_action a a'))
          all_actions);
    Alcotest.test_case "event sexp round-trip" `Quick (fun () ->
        List.iter
          (fun action ->
            let e = { Fault.at = 1234.5; action } in
            Alcotest.(check bool)
              "event" true
              (Fault.equal_event e (Fault.event_of_sexp (Fault.event_to_sexp e))))
          all_actions);
    Alcotest.test_case "shadow tracks crash/recover/partition" `Quick (fun () ->
        let sh = Fault.Shadow.create ~sites:4 in
        Alcotest.(check int) "all up" 4 (Fault.Shadow.up_count sh);
        Fault.Shadow.apply sh (Fault.Crash 1);
        Fault.Shadow.apply sh (Fault.Crash 3);
        Alcotest.(check (list int))
          "down" [ 1; 3 ]
          (Fault.Shadow.down_sites sh);
        Fault.Shadow.apply sh (Fault.Recover 3);
        Alcotest.(check bool) "3 back" true (Fault.Shadow.is_up sh 3);
        Alcotest.(check bool) "no split" false (Fault.Shadow.partitioned sh);
        Fault.Shadow.apply sh (Fault.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
        Alcotest.(check bool) "split" true (Fault.Shadow.partitioned sh);
        Fault.Shadow.apply sh Fault.Heal;
        Alcotest.(check bool) "healed" false (Fault.Shadow.partitioned sh));
    Alcotest.test_case "apply owns the network fault path" `Quick (fun () ->
        let engine = Relax_sim.Engine.create () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        Fault.apply net (Fault.Crash 2);
        Alcotest.(check bool) "crashed" false (Relax_sim.Network.is_up net 2);
        Fault.apply net (Fault.Drop 0.5);
        Alcotest.(check (float 0.0))
          "drop knob" 0.5
          (Relax_sim.Network.drop_probability net);
        Fault.apply net (Fault.Skew (1, 7.0));
        Alcotest.(check (float 0.0)) "skew knob" 7.0 (Relax_sim.Network.skew net 1);
        Fault.apply net (Fault.Recover 2);
        Alcotest.(check bool) "back" true (Relax_sim.Network.is_up net 2));
  ]

(* ------------------------------------------------------------------ *)
(* Nemesis schedule generation                                         *)
(* ------------------------------------------------------------------ *)

let gen_schedule seed =
  match Nemesis.of_names Scenarios.default_nemeses with
  | Error e -> Alcotest.fail e
  | Ok nems ->
    Nemesis.generate nems
      ~rng:(Relax_sim.Rng.create ~seed)
      ~sites:5 ~horizon:8000.0 ~tick:400.0

let nemesis_tests =
  [
    Alcotest.test_case "same seed, same schedule" `Quick (fun () ->
        let a = gen_schedule 9 and b = gen_schedule 9 in
        Alcotest.(check int) "length" (List.length a) (List.length b);
        List.iter2
          (fun x y ->
            Alcotest.(check bool) "event" true (Fault.equal_event x y))
          a b);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = gen_schedule 9 and b = gen_schedule 10 in
        Alcotest.(check bool)
          "diverge" false
          (List.length a = List.length b
          && List.for_all2 Fault.equal_event a b));
    Alcotest.test_case "events land on the tick grid, in order" `Quick
      (fun () ->
        let sched = gen_schedule 3 in
        Alcotest.(check bool) "nonempty" true (sched <> []);
        let ok_time t = t >= 400.0 && t < 8000.0 && Float.rem t 400.0 = 0.0 in
        Alcotest.(check bool)
          "on grid" true
          (List.for_all (fun e -> ok_time e.Fault.at) sched);
        let rec sorted = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) -> a.Fault.at <= b.Fault.at && sorted rest
        in
        Alcotest.(check bool) "sorted" true (sorted sched));
    Alcotest.test_case "unknown nemesis rejected" `Quick (fun () ->
        match Nemesis.of_names [ "crash"; "gremlin" ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "gremlin should not resolve");
  ]

(* ------------------------------------------------------------------ *)
(* Record/replay determinism                                           *)
(* ------------------------------------------------------------------ *)

let make_trace ?(point = "top") ?(nemeses = Scenarios.default_nemeses) seed =
  let config = { Runner.default_config with seed } in
  match Scenarios.make_trace ~point ~nemeses ~config with
  | Error e -> Alcotest.fail e
  | Ok trace -> trace

let replay trace =
  match Scenarios.run_trace trace with
  | Error e -> Alcotest.fail e
  | Ok (result, verdict) -> (result, verdict)

let trace_tests =
  [
    Alcotest.test_case "trace serialization round-trips" `Quick (fun () ->
        let trace = make_trace 5 in
        let trace' = Trace.of_string (Trace.to_string trace) in
        Alcotest.(check bool) "equal" true (Trace.equal trace trace');
        Alcotest.(check string)
          "canonical" (Trace.to_string trace) (Trace.to_string trace'));
    Alcotest.test_case "replay is byte-identical (same trace)" `Quick
      (fun () ->
        let trace = make_trace 5 in
        let a, _ = replay trace and b, _ = replay trace in
        Alcotest.(check string) "digest" a.Runner.digest b.Runner.digest;
        Alcotest.(check int) "completed" a.Runner.completed b.Runner.completed;
        Alcotest.(check bool)
          "history" true
          (List.length a.Runner.history = List.length b.Runner.history
          && List.for_all2 Relax_core.Op.equal a.Runner.history
               b.Runner.history));
    Alcotest.test_case "replay survives the file round-trip" `Quick (fun () ->
        let trace = make_trace ~point:"adaptive" 6 in
        let path = Filename.temp_file "chaos" ".trace" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Trace.save path trace;
            let trace' = Trace.load path in
            let a, _ = replay trace and b, _ = replay trace' in
            Alcotest.(check string) "digest" a.Runner.digest b.Runner.digest));
    Alcotest.test_case "replica metrics are recorded" `Quick (fun () ->
        let result, _ = replay (make_trace 11) in
        Alcotest.(check int)
          "attempts counter"
          result.Runner.attempts
          (Relax_obs.Metrics.count result.Runner.metrics "replica/attempts");
        Alcotest.(check bool)
          "attempts cover completions" true
          (result.Runner.attempts
          >= result.Runner.completed + result.Runner.retries_used));
  ]

(* ------------------------------------------------------------------ *)
(* Oracle and shrinker                                                 *)
(* ------------------------------------------------------------------ *)

(* A planted violation: amnesia at the preferred point (seed picked so
   the sweep finds one; the amnesia experiment documents why stable-
   storage loss must be able to break PQ). *)
let violating_trace () =
  let candidates =
    List.filter_map
      (fun seed ->
        let trace = make_trace ~nemeses:[ "crash"; "amnesia" ] seed in
        match replay trace with
        | _, Oracle.Violation _ -> Some trace
        | _, Oracle.Conforms -> None)
      [ 10; 8; 9; 1; 6 ]
  in
  match candidates with
  | t :: _ -> t
  | [] -> Alcotest.fail "no amnesia violation found in the seed window"

let violates trace events =
  match replay { trace with Trace.events } with
  | _, Oracle.Violation _ -> true
  | _, Oracle.Conforms -> false

let check_one_minimal ~violates events =
  Alcotest.(check bool) "still violates" true (violates events);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) events in
      Alcotest.(check bool)
        (Fmt.str "dropping event %d breaks the violation" i)
        false (violates without))
    events

let shrink_tests =
  [
    Alcotest.test_case "oracle localizes the shortest rejected prefix" `Quick
      (fun () ->
        let open Relax_objects in
        let h =
          [
            Queue_ops.enq_int 2; Queue_ops.deq_int 2; Queue_ops.deq_int 2;
            Queue_ops.enq_int 1;
          ]
        in
        let accepts = Relax_core.Automaton.accepts Pqueue.automaton in
        match Oracle.check ~accepts h with
        | Oracle.Conforms -> Alcotest.fail "double service must be rejected"
        | Oracle.Violation { rejected_prefix; _ } ->
          Alcotest.(check int) "prefix length" 3 (List.length rejected_prefix));
    Alcotest.test_case "ddmin on a synthetic predicate" `Quick (fun () ->
        (* the "violation" needs exactly events #2 and #5 *)
        let events =
          List.init 8 (fun i ->
              { Fault.at = float_of_int (i + 1); action = Fault.Crash i })
        in
        let needs e = List.mem e.Fault.at [ 3.0; 6.0 ] in
        let violates l = List.length (List.filter needs l) = 2 in
        let result, probes = Shrink.ddmin ~violates events in
        Alcotest.(check int) "minimal size" 2 (List.length result);
        Alcotest.(check bool) "kept the cause" true (List.for_all needs result);
        Alcotest.(check bool) "probes counted" true (probes > 0));
    Alcotest.test_case "minimize probes each distinct schedule exactly once"
      `Quick (fun () ->
        (* the memoized oracle must never replay a canonical schedule
           twice across the ddmin / weaken / ddmin phases, and the
           reported probe count is the distinct-schedule count *)
        let events =
          List.init 8 (fun i ->
              { Fault.at = float_of_int (i + 1); action = Fault.Crash i })
        in
        let needs e = List.mem e.Fault.at [ 3.0; 6.0 ] in
        let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
        let violates l =
          let key = Shrink.schedule_key l in
          Alcotest.(check bool)
            (Fmt.str "schedule %s probed once" key)
            false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ();
          List.length (List.filter needs l) = 2
        in
        let result, probes = Shrink.minimize ~violates events in
        Alcotest.(check int) "minimal size" 2 (List.length result);
        Alcotest.(check int)
          "probes = distinct schedules" (Hashtbl.length seen) probes);
    Alcotest.test_case "empty schedule already violating shrinks to nothing"
      `Quick (fun () ->
        let events =
          [ { Fault.at = 1.0; action = Fault.Heal } ]
        in
        let result, _ = Shrink.minimize ~violates:(fun _ -> true) events in
        Alcotest.(check int) "empty" 0 (List.length result));
    Alcotest.test_case "already-1-minimal schedule is a ddmin fixpoint" `Quick
      (fun () ->
        (* both crashes are needed: ddmin must return the input verbatim *)
        let events =
          [
            { Fault.at = 1.0; action = Fault.Crash 0 };
            { Fault.at = 2.0; action = Fault.Crash 1 };
          ]
        in
        let violates l = List.length l = 2 in
        let result, probes = Shrink.ddmin ~violates events in
        Alcotest.(check bool)
          "unchanged, in order" true
          (List.length result = List.length events
          && List.for_all2 Fault.equal_event events result);
        Alcotest.(check bool) "still probed" true (probes > 0));
    Alcotest.test_case "single-event schedule survives minimize unchanged"
      `Quick (fun () ->
        let events = [ { Fault.at = 1.0; action = Fault.Wipe 0 } ] in
        let result, _ = Shrink.minimize ~violates:(fun l -> l <> []) events in
        Alcotest.(check bool)
          "identity" true
          (List.length result = 1
          && List.for_all2 Fault.equal_event events result));
    Alcotest.test_case "minimize halves knob magnitudes while still violating"
      `Quick (fun () ->
        let events = [ { Fault.at = 1.0; action = Fault.Delay 8.0 } ] in
        let violates l =
          List.exists
            (fun e ->
              match e.Fault.action with
              | Fault.Delay d -> d >= 3.0
              | _ -> false)
            l
        in
        let result, _ = Shrink.minimize ~violates events in
        match result with
        | [ { Fault.action = Fault.Delay d; _ } ] ->
          (* 8 -> 4 accepted, 4 -> 2 would stop violating: fixpoint at 4 *)
          Alcotest.(check (float 0.001)) "halved to the threshold" 4.0 d
        | _ -> Alcotest.fail "expected a single surviving delay fault");
    Alcotest.test_case "planted amnesia violation shrinks to a 1-minimal \
                        replayable trace"
      `Slow (fun () ->
        let trace = violating_trace () in
        let shrunk, probes = Scenarios.shrink_trace trace in
        Alcotest.(check bool)
          "shrank" true
          (List.length shrunk.Trace.events < List.length trace.Trace.events);
        Alcotest.(check bool) "probes spent" true (probes > 0);
        check_one_minimal ~violates:(violates trace) shrunk.Trace.events;
        (* the shrunken trace replays to the same violation after a
           serialization round-trip *)
        let reloaded = Trace.of_string (Trace.to_string shrunk) in
        (match replay reloaded with
        | _, Oracle.Violation _ -> ()
        | _, Oracle.Conforms ->
          Alcotest.fail "shrunken trace must still violate");
        (* every surviving event is a stable-storage fault or a crash —
           the mechanism the amnesia experiment blames *)
        Alcotest.(check bool)
          "cause is amnesia" true
          (List.exists
             (fun e ->
               match e.Fault.action with Fault.Wipe _ -> true | _ -> false)
             shrunk.Trace.events));
    Alcotest.test_case "injected oracle bug shrinks to a replayable witness"
      `Slow (fun () ->
        (* Fixture: break the oracle on purpose — demand the preferred
           language (PQ) of a bottom-point run.  The searched schedules
           then "violate" immediately, and the shrinker must still
           produce a 1-minimal trace whose replay reproduces the
           rejection under the same buggy oracle. *)
        let trace = make_trace ~point:"bottom" 3 in
        let buggy_accepts =
          Relax_core.Automaton.accepts Relax_objects.Pqueue.automaton
        in
        let buggy_violates events =
          match replay { trace with Trace.events } with
          | result, _ -> (
            match Oracle.check ~accepts:buggy_accepts result.Runner.history with
            | Oracle.Violation _ -> true
            | Oracle.Conforms -> false)
        in
        if not (buggy_violates trace.Trace.events) then
          Alcotest.fail "fixture should trip the too-strict oracle";
        let events, _ = Shrink.minimize ~violates:buggy_violates trace.Trace.events in
        check_one_minimal ~violates:buggy_violates events;
        let reloaded =
          Trace.of_string (Trace.to_string { trace with Trace.events })
        in
        Alcotest.(check bool)
          "minimal witness replays under the buggy oracle" true
          (buggy_violates reloaded.Trace.events));
  ]

(* ------------------------------------------------------------------ *)
(* Conformance as a property, and jobs-independence                    *)
(* ------------------------------------------------------------------ *)

let conformance_tests =
  [
    qtest
      (QCheck.Test.make ~count:8
         ~name:
           "assumption-preserving nemeses keep every point in its language \
            (random seeds)"
         QCheck.(int_range 1 1000)
         (fun seed ->
           List.for_all
             (fun point ->
               match replay (make_trace ~point seed) with
               | _, Oracle.Conforms -> true
               | _, Oracle.Violation _ -> false)
             Scenarios.names));
    Alcotest.test_case "conformance across >=5 fixed seeds" `Slow (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun point ->
                match replay (make_trace ~point seed) with
                | _, Oracle.Conforms -> ()
                | _, Oracle.Violation _ ->
                  Alcotest.fail (Fmt.str "violation at %s, seed %d" point seed))
              Scenarios.names)
          [ 1; 2; 3; 4; 5; 42 ]);
    Alcotest.test_case "sweep is jobs-independent" `Slow (fun () ->
        let sweep jobs =
          match
            Scenarios.sweep ~jobs ~runs:10 ~seed:42
              ~nemeses:Scenarios.default_nemeses ~points:Scenarios.names ()
          with
          | Error e -> Alcotest.fail e
          | Ok report ->
            List.map
              (fun (r : Scenarios.run_report) -> r.Scenarios.result.Runner.digest)
              report.Scenarios.reports
        in
        Alcotest.(check (list string)) "digests" (sweep 1) (sweep 4));
    Alcotest.test_case "recover point performs recoveries and conforms"
      `Slow (fun () ->
        (* the durable scenario must actually exercise the journal path
           under the crash nemesis — a sweep with zero recoveries would
           be vacuously conformant *)
        let recoveries = ref 0 in
        List.iter
          (fun seed ->
            let result, verdict = replay (make_trace ~point:"recover" seed) in
            recoveries := !recoveries + result.Runner.recoveries;
            match verdict with
            | Oracle.Conforms -> ()
            | Oracle.Violation _ ->
              Alcotest.fail
                (Fmt.str "recover point violated at seed %d" seed))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        Alcotest.(check bool)
          "journals were replayed" true (!recoveries > 0));
    Alcotest.test_case "non-durable points never recover" `Quick (fun () ->
        let result, _ = replay (make_trace ~point:"top" 42) in
        Alcotest.(check int)
          "no journals, no recoveries" 0 result.Runner.recoveries);
    Alcotest.test_case
      "lost point survives amnesia under the empty constraint set" `Slow
      (fun () ->
        let nemeses = Scenarios.default_nemeses @ [ "amnesia" ] in
        (match Scenarios.find "lost" with
        | Error e -> Alcotest.fail e
        | Ok sc ->
          Alcotest.(check bool) "lost is durable" true sc.Scenarios.durable;
          Alcotest.(check string)
            "judged by the empty cset" "{}" sc.Scenarios.lattice);
        List.iter
          (fun seed ->
            match replay (make_trace ~point:"lost" ~nemeses seed) with
            | _, Oracle.Conforms -> ()
            | _, Oracle.Violation _ ->
              Alcotest.fail (Fmt.str "lost point violated at seed %d" seed))
          [ 1; 2; 3; 4; 5 ]);
  ]

let () =
  Alcotest.run "chaos"
    [
      ("sexp", sexp_tests);
      ("fault", fault_tests);
      ("nemesis", nemesis_tests);
      ("trace", trace_tests);
      ("shrink", shrink_tests);
      ("conformance", conformance_tests);
    ]
