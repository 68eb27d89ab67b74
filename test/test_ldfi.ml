module Ldfi = Relax_ldfi
module Support = Ldfi.Support
module Solver = Ldfi.Solver
module Search = Ldfi.Search
module X = Relax_experiments.Ldfi_x
module Scenarios = Relax_experiments.Chaos_scenarios
module Chaos = Relax_chaos
module Fault = Chaos.Fault
module Trace = Chaos.Trace
module Oracle = Chaos.Oracle

(* Tests for lineage-driven fault injection: the hitting-set solver
   (minimality, ordering, budget pruning, the enumeration valve),
   support-graph extraction from a traced run, fault realization
   (window coalescing, wipe, omissions), exhaustive coverage on the
   unmodified tree, jobs-independence of the coverage document, and the
   planted volatile-logs hunt — including 1-minimality of both the
   reported fault set and the ddmin-shrunken schedule, and the >=10x
   guided-vs-random executions-to-violation bar. *)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let cfg ?(admissible = fun _ -> true) ?(max_size = 3) ?(max_models = 1000) ()
    =
  { Solver.compare = Int.compare; admissible; max_size; max_models }

let models = Alcotest.(list (list int))

let solver_tests =
  [
    Alcotest.test_case "one clause: each variable is a minimal model" `Quick
      (fun () ->
        let ms, complete = Solver.models (cfg ()) [ [ 2; 1 ] ] in
        Alcotest.check models "singletons" [ [ 1 ]; [ 2 ] ] ms;
        Alcotest.(check bool) "complete" true complete);
    Alcotest.test_case "overlap: shared variable beats the pair" `Quick
      (fun () ->
        let ms, _ = Solver.models (cfg ()) [ [ 1; 2 ]; [ 2; 3 ] ] in
        (* [2] hits both clauses; [1;3] is the only other minimal model;
           [1;2] and [2;3] are supersets of [2] and must be filtered *)
        Alcotest.check models "minimal, smallest first" [ [ 2 ]; [ 1; 3 ] ] ms);
    Alcotest.test_case "conjunction of units needs every unit" `Quick
      (fun () ->
        let ms, _ = Solver.models (cfg ()) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
        Alcotest.check models "one model" [ [ 1; 2; 3 ] ] ms);
    Alcotest.test_case "max_size prunes without losing completeness" `Quick
      (fun () ->
        let ms, complete =
          Solver.models (cfg ~max_size:1 ()) [ [ 1 ]; [ 2 ] ]
        in
        Alcotest.check models "no model fits" [] ms;
        Alcotest.(check bool) "still complete" true complete);
    Alcotest.test_case "inadmissible sets are pruned monotonically" `Quick
      (fun () ->
        (* at most one variable >= 10 per model *)
        let admissible vars =
          List.length (List.filter (fun v -> v >= 10) vars) <= 1
        in
        let clauses = [ [ 10; 1 ]; [ 11; 1 ] ] in
        let unrestricted, _ = Solver.models (cfg ()) clauses in
        Alcotest.check models "both minimal models without a budget"
          [ [ 1 ]; [ 10; 11 ] ]
          unrestricted;
        let ms, complete = Solver.models (cfg ~admissible ()) clauses in
        Alcotest.check models "the two-crash model is pruned" [ [ 1 ] ] ms;
        Alcotest.(check bool) "complete" true complete);
    Alcotest.test_case "an empty clause makes the formula unbreakable" `Quick
      (fun () ->
        let ms, complete = Solver.models (cfg ()) [ [ 1 ]; [] ] in
        Alcotest.check models "no models" [] ms;
        Alcotest.(check bool) "complete" true complete);
    Alcotest.test_case "no clauses: the empty model" `Quick (fun () ->
        let ms, _ = Solver.models (cfg ()) [] in
        Alcotest.check models "empty model" [ [] ] ms);
    Alcotest.test_case "model order is size then lexicographic" `Quick
      (fun () ->
        let ms, _ = Solver.models (cfg ()) [ [ 3; 1; 2 ] ] in
        Alcotest.check models "sorted" [ [ 1 ]; [ 2 ]; [ 3 ] ] ms;
        let c = cfg () in
        Alcotest.(check bool)
          "size dominates" true
          (Solver.compare_model c [ 9 ] [ 1; 2 ] < 0);
        Alcotest.(check bool)
          "lex within size" true
          (Solver.compare_model c [ 1; 9 ] [ 2; 3 ] < 0));
    Alcotest.test_case "the enumeration valve reports incompleteness" `Quick
      (fun () ->
        let ms, complete =
          Solver.models (cfg ~max_models:3 ()) [ [ 1; 2; 3; 4; 5; 6 ] ]
        in
        Alcotest.(check bool) "truncated" true (List.length ms <= 3);
        Alcotest.(check bool) "flagged" false complete);
  ]

(* ------------------------------------------------------------------ *)
(* Fault variables and realization                                     *)
(* ------------------------------------------------------------------ *)

let dkey src dst seq = { Support.src; dst; seq }

(* a bare slot grid: 4 slots of 10 time units, quiescing at 40 *)
let grid =
  {
    Support.nslots = 4;
    slot_starts = [| 0.0; 10.0; 20.0; 30.0 |];
    quiesce = 40.0;
    completed = [];
    durable = [];
  }

let pp_events ppf events = Fmt.(list ~sep:comma Fault.pp_event) ppf events

let check_events name expected actual =
  Alcotest.(check string)
    name
    (Fmt.str "%a" pp_events expected)
    (Fmt.str "%a" pp_events actual)

let search_tests =
  [
    Alcotest.test_case "dkey round-trips through its rendered form" `Quick
      (fun () ->
        let k = dkey 1 4 17 in
        Alcotest.(check bool)
          "round-trip" true
          (Support.dkey_of_string (Support.dkey_to_string k) = Some k));
    Alcotest.test_case "budget admissibility counts kinds separately" `Quick
      (fun () ->
        let b = { Search.max_crashes = 1; max_drops = 1; max_injections = 1 } in
        let crash w s = Search.Crash { window = w; site = s } in
        Alcotest.(check bool)
          "one of each fits" true
          (Search.admissible b [ Search.Drop (dkey 0 1 2); crash 0 0 ]);
        Alcotest.(check bool)
          "two crashes do not" false
          (Search.admissible b [ crash 0 0; crash 1 1 ]);
        Alcotest.(check bool)
          "two drops do not" false
          (Search.admissible b
             [ Search.Drop (dkey 0 1 2); Search.Drop (dkey 0 1 3) ]));
    Alcotest.test_case "adjacent crash windows coalesce into one interval"
      `Quick (fun () ->
        let events =
          Search.realize ~support:grid ~wipe:false
            [
              Search.Crash { window = 1; site = 0 };
              Search.Crash { window = 2; site = 0 };
            ]
        in
        check_events "one crash/recover pair"
          [
            { Fault.at = 10.0; action = Fault.Crash 0 };
            { Fault.at = 30.0; action = Fault.Recover 0 };
          ]
          events);
    Alcotest.test_case "disjoint windows stay separate intervals" `Quick
      (fun () ->
        let events =
          Search.realize ~support:grid ~wipe:false
            [
              Search.Crash { window = 0; site = 1 };
              Search.Crash { window = 2; site = 1 };
            ]
        in
        check_events "two intervals"
          [
            { Fault.at = 0.0; action = Fault.Crash 1 };
            { Fault.at = 10.0; action = Fault.Recover 1 };
            { Fault.at = 20.0; action = Fault.Crash 1 };
            { Fault.at = 30.0; action = Fault.Recover 1 };
          ]
          events);
    Alcotest.test_case "wipe realization wipes at the crash instant" `Quick
      (fun () ->
        let events =
          Search.realize ~support:grid ~wipe:true
            [ Search.Crash { window = 3; site = 2 } ]
        in
        check_events "crash+wipe, recover at quiescence"
          [
            { Fault.at = 30.0; action = Fault.Crash 2 };
            { Fault.at = 30.0; action = Fault.Wipe 2 };
            { Fault.at = 40.0; action = Fault.Recover 2 };
          ]
          events);
    Alcotest.test_case "drops realize as omissions at time zero" `Quick
      (fun () ->
        let events =
          Search.realize ~support:grid ~wipe:false
            [ Search.Drop (dkey 1 4 2) ]
        in
        check_events "one omission"
          [ { Fault.at = 0.0; action = Fault.Omit (1, 4, 2) } ]
          events);
  ]

(* ------------------------------------------------------------------ *)
(* Lineage extraction                                                  *)
(* ------------------------------------------------------------------ *)

let support_tests =
  [
    Alcotest.test_case "the base run's support graph is well-formed" `Quick
      (fun () ->
        let sys = X.system ~config:X.claim_config "top" in
        let base = sys.Search.exec [] in
        Alcotest.(check bool) "base conforms" true base.Search.conforms;
        let s = base.Search.support in
        Alcotest.(check bool) "has slots" true (s.Support.nslots > 0);
        Alcotest.(check int)
          "one start per slot" s.Support.nslots
          (Array.length s.Support.slot_starts);
        Array.iteri
          (fun i at ->
            if i > 0 then
              Alcotest.(check bool)
                "slot starts nondecreasing" true
                (at >= s.Support.slot_starts.(i - 1)))
          s.Support.slot_starts;
        Alcotest.(check bool)
          "quiescence after the last slot" true
          (s.Support.quiesce
          >= s.Support.slot_starts.(s.Support.nslots - 1));
        Alcotest.(check bool)
          "completed ops observed" true
          (s.Support.completed <> []);
        List.iter
          (fun (o : Support.op_support) ->
            Alcotest.(check bool)
              "slot within grid" true
              (o.Support.slot >= 0 && o.Support.slot < s.Support.nslots);
            (* an Enq is a blind write (no initial quorum), so replies
               may be empty — but every completed op counted acks *)
            Alcotest.(check bool)
              "final quorum nonempty" true (o.Support.acks <> []))
          s.Support.completed;
        Alcotest.(check bool)
          "durable entries observed" true
          (s.Support.durable <> []);
        let sites = X.claim_config.Chaos.Runner.sites in
        List.iter
          (fun (_, placements) ->
            Alcotest.(check bool) "placements exist" true (placements <> []);
            List.iter
              (fun (p : Support.placement) ->
                Alcotest.(check bool)
                  "site in range" true
                  (p.Support.site >= 0 && p.Support.site < sites))
              placements)
          s.Support.durable);
    Alcotest.test_case "extraction is inert without a tracer" `Quick (fun () ->
        (* the same run outside a tracer still conforms and yields the
           empty support — lineage instrumentation must not change the
           run itself *)
        match Scenarios.find "top" with
        | Error e -> Alcotest.fail e
        | Ok _ -> (
          let trace =
            {
              Trace.point = "top";
              nemeses = [ "ldfi" ];
              config = X.claim_config;
              events = [];
            }
          in
          match Scenarios.run_trace trace with
          | Error e -> Alcotest.fail e
          | Ok (_, verdict) ->
            Alcotest.(check bool)
              "conforms untraced" true (Oracle.conforms verdict)));
  ]

(* ------------------------------------------------------------------ *)
(* Duplicated deliveries as alternative carriers                       *)
(* ------------------------------------------------------------------ *)

let dup_tests =
  [
    Alcotest.test_case
      "full duplication surfaces alternative carrier bundles" `Quick
      (fun () ->
        (* with every message duplicated, some counted contribution is
           re-made by the dup copy — the member must record it *)
        let sys = X.system ~config:X.claim_config "top" in
        let run =
          sys.Search.exec
            [ { Fault.at = 0.0; action = Fault.Duplicate 1.0 } ]
        in
        let members =
          List.concat_map
            (fun (o : Support.op_support) ->
              o.Support.replies @ o.Support.acks)
            run.Search.support.Support.completed
        in
        Alcotest.(check bool) "completed something" true (members <> []);
        Alcotest.(check bool)
          "some member carries an alternative bundle" true
          (List.exists (fun (m : Support.member) -> m.Support.alts <> []) members));
    Alcotest.test_case
      "a dup-masked drop needs both bundles in the clauses" `Quick
      (fun () ->
        (* synthetic lineage: op at slot 0, client 0, one counted ack
           from site 1 carried by k1, with a duplicate delivery k2 that
           re-made the contribution.  A drop-only fault set must name
           BOTH copies, so the clause set must offer each bundle as its
           own derivation. *)
        let k1 = dkey 0 1 5 and k2 = dkey 0 1 6 in
        let o =
          {
            Support.slot = 0;
            client = 0;
            attempt = 1;
            replies = [];
            acks = [ { Support.site = 1; carry = [ k1 ]; alts = [ [ k2 ] ] } ];
          }
        in
        let clauses = Search.completion_clauses o in
        let has_drop k =
          List.exists (List.exists (fun v -> v = Search.Drop k)) clauses
        in
        Alcotest.(check bool) "counted copy proposed" true (has_drop k1);
        Alcotest.(check bool) "dup copy proposed too" true (has_drop k2);
        (* and the two bundles are separate derivations: no clause
           mixes k1 and k2 (each clause cuts one full bundle) *)
        Alcotest.(check bool)
          "bundles stay separate derivations" true
          (not
             (List.exists
                (fun c ->
                  List.mem (Search.Drop k1) c && List.mem (Search.Drop k2) c)
                clauses)));
    Alcotest.test_case "durability kills are wipes under journals" `Quick
      (fun () ->
        let copies =
          [ { Support.site = 2; via = Some (dkey 0 2 3); from_slot = 1 } ]
        in
        let volatile =
          Search.durability_clauses ~nslots:3 ~durable:false copies
        in
        let journaled =
          Search.durability_clauses ~nslots:3 ~durable:true copies
        in
        let kinds clauses =
          List.concat clauses
          |> List.filter_map (function
               | Search.Crash _ -> Some `Crash
               | Search.Wipe _ -> Some `Wipe
               | Search.Drop _ -> None)
          |> List.sort_uniq compare
        in
        Alcotest.(check bool)
          "volatile storage dies to crashes" true
          (kinds volatile = [ `Crash ]);
        Alcotest.(check bool)
          "journaled storage dies only to wipes" true
          (kinds journaled = [ `Wipe ]);
        (* both models still propose dropping the carrying delivery *)
        List.iter
          (fun clauses ->
            Alcotest.(check bool)
              "carrier drop proposed" true
              (List.exists
                 (List.exists (function Search.Drop _ -> true | _ -> false))
                 clauses))
          [ volatile; journaled ]);
  ]

(* ------------------------------------------------------------------ *)
(* Coverage on the unmodified tree                                     *)
(* ------------------------------------------------------------------ *)

let coverage_outcomes ?jobs () =
  match
    X.run_points ?jobs ~config:X.claim_config ~budget:X.claim_budget
      ~strategy:`Guided X.claim_points
  with
  | Error e -> Alcotest.fail e
  | Ok outcomes -> outcomes

let coverage_tests =
  [
    Alcotest.test_case
      "guided search exhausts the CI budget with zero violations" `Quick
      (fun () ->
        let outcomes = coverage_outcomes () in
        Alcotest.(check int)
          "all points" (List.length X.claim_points) (List.length outcomes);
        List.iter
          (fun (o : X.outcome) ->
            Alcotest.(check bool)
              (o.X.point ^ " has no violation")
              true (o.X.violation = None);
            Alcotest.(check bool)
              (o.X.point ^ " exhausted the candidate space")
              true o.X.stats.Search.exhausted;
            Alcotest.(check bool)
              (o.X.point ^ " injected something")
              true
              (o.X.stats.Search.injections > 0))
          outcomes);
    Alcotest.test_case "the coverage document is bit-exact at jobs 1 vs 4"
      `Quick (fun () ->
        let doc jobs =
          X.coverage_json ~budget:X.claim_budget ~wipe:false
            (coverage_outcomes ~jobs ())
        in
        Alcotest.(check string) "identical documents" (doc 1) (doc 4));
    Alcotest.test_case "the coverage document reads back faithfully" `Quick
      (fun () ->
        let outcomes = coverage_outcomes () in
        let doc = X.coverage_json ~budget:X.claim_budget ~wipe:false outcomes in
        match X.read_coverage doc with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check bool) "verdict holds" true (X.read_ok r);
          Alcotest.(check int)
            "point count" (List.length outcomes)
            (List.length r.X.r_outcomes);
          List.iter2
            (fun (o : X.outcome) (p : X.read_outcome) ->
              Alcotest.(check string) "point" o.X.point p.X.r_point;
              Alcotest.(check int)
                "executions" o.X.stats.Search.executions p.X.r_executions;
              Alcotest.(check bool)
                "exhausted" o.X.stats.Search.exhausted p.X.r_exhausted)
            outcomes r.X.r_outcomes);
    Alcotest.test_case "malformed coverage documents are rejected" `Quick
      (fun () ->
        List.iter
          (fun doc ->
            match X.read_coverage doc with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("should not read: " ^ doc))
          [
            "";
            "{}";
            "{\"experiment\":\"load\"}";
            "{\"experiment\":\"ldfi\",\"budget\":{\"max_crashes\":1}}";
          ]);
  ]

(* The coverage document as a decoder over hostile input: arbitrary
   point, strategy and fault-set strings read back exactly, and no byte
   string — random, or a valid document with bytes overwritten or cut —
   makes the reader raise. *)
let coverage_fuzz_tests =
  let qtest t = QCheck_alcotest.to_alcotest t in
  let stats =
    {
      Search.executions = 3;
      injections = 2;
      candidates = 2;
      vars = 4;
      clauses = 5;
      rounds = 1;
      exhausted = true;
    }
  in
  let trace =
    {
      Trace.point = "top";
      nemeses = X.nemeses_tag;
      config = X.default_config;
      events = [];
    }
  in
  let outcome (point, strategy, fault_set) =
    {
      X.point;
      strategy;
      stats;
      violation =
        Option.map
          (fun fault_set -> { X.fault_set; trace; shrunk = trace; probes = 0 })
          fault_set;
    }
  in
  (* every byte value, with the ones the writer escapes and the reader
     scans for over-represented *)
  let byte =
    QCheck.Gen.(
      frequency
        [
          (3, char);
          ( 2,
            oneofl
              [ '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\031'; '{'; '}'; '[';
                ']'; ','; ':'; 'u' ] );
        ])
  in
  let str = QCheck.Gen.(string_size ~gen:byte (0 -- 12)) in
  let outcomes =
    QCheck.Gen.(
      list_size (1 -- 3) (triple str str (opt (list_size (0 -- 3) str))))
  in
  let doc os =
    X.coverage_json ~budget:X.claim_budget ~wipe:false (List.map outcome os)
  in
  let reads s = match X.read_coverage s with Ok _ | Error _ -> true in
  [
    qtest
      (QCheck.Test.make ~count:500
         ~name:"arbitrary point, strategy and fault-set strings read back"
         (QCheck.make ~print:doc outcomes) (fun os ->
           match X.read_coverage (doc os) with
           | Error _ -> false
           | Ok r ->
             List.length r.X.r_outcomes = List.length os
             && List.for_all2
                  (fun (point, strategy, fault_set) (o : X.read_outcome) ->
                    o.X.r_point = point && o.X.r_strategy = strategy
                    && o.X.r_fault_set = Option.value fault_set ~default:[]
                    && o.X.r_violations = Bool.to_int (fault_set <> None))
                  os r.X.r_outcomes));
    qtest
      (QCheck.Test.make ~count:1000 ~name:"arbitrary strings never raise"
         QCheck.(string_gen byte)
         reads);
    qtest
      (QCheck.Test.make ~count:1000
         ~name:"byte-mutated and truncated documents never raise"
         QCheck.(
           make
             Gen.(
               triple outcomes
                 (list_size (1 -- 6) (pair nat byte))
                 (opt nat)))
         (fun (os, edits, cut) ->
           let b = Bytes.of_string (doc os) in
           List.iter
             (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c)
             edits;
           let s = Bytes.to_string b in
           let s =
             match cut with
             | Some k -> String.sub s 0 (k mod (String.length s + 1))
             | None -> s
           in
           reads s));
  ]

(* ------------------------------------------------------------------ *)
(* The planted volatile-logs hunt                                      *)
(* ------------------------------------------------------------------ *)

(* Small enough for the test suite: four requests, aggressive healing —
   the same needle `rlx ldfi hunt` searches for, in a shorter run. *)
let hunt_config = { X.hunt_config with Chaos.Runner.requests = 4 }

let violates_trace trace =
  match Scenarios.run_trace trace with
  | Error e -> Alcotest.fail e
  | Ok (_, verdict) -> not (Oracle.conforms verdict)

let hunt_tests =
  [
    Alcotest.test_case
      "guided finds the planted bug; the fault set is 1-minimal" `Slow
      (fun () ->
        let sys = X.system ~config:hunt_config "top" in
        let result = Search.guided ~wipe:true ~budget:X.hunt_budget sys in
        match result.Search.violation with
        | None -> Alcotest.fail "guided search missed the planted bug"
        | Some f ->
          Alcotest.(check bool)
            "violation is real" true
            (not (sys.Search.exec f.Search.events).Search.conforms);
          let support = (sys.Search.exec []).Search.support in
          List.iteri
            (fun i _ ->
              let rest =
                List.filteri (fun j _ -> j <> i) f.Search.fault_set
              in
              let events = Search.realize ~support ~wipe:true rest in
              Alcotest.(check bool)
                (Fmt.str "dropping member %d restores conformance" i)
                true
                (rest = [] || (sys.Search.exec events).Search.conforms))
            f.Search.fault_set);
    Alcotest.test_case
      "the shrunken schedule is 1-minimal and beats random by >=10x" `Slow
      (fun () ->
        match X.hunt ~config:hunt_config ~random_seed:1 "top" with
        | Error e -> Alcotest.fail e
        | Ok r -> (
          match r.X.guided.X.violation with
          | None -> Alcotest.fail "guided search missed the planted bug"
          | Some v ->
            (* ddmin left a 1-minimal replayable schedule *)
            let shrunk = v.X.shrunk in
            Alcotest.(check bool)
              "shrunk still violates" true (violates_trace shrunk);
            List.iteri
              (fun i _ ->
                let without =
                  List.filteri (fun j _ -> j <> i) shrunk.Trace.events
                in
                Alcotest.(check bool)
                  (Fmt.str "dropping event %d breaks the violation" i)
                  false
                  (violates_trace { shrunk with Trace.events = without }))
              shrunk.Trace.events;
            (* the >=10x bar: either random also found one and the ratio
               is explicit, or it burned 10x the guided executions and
               found nothing — >=10x by construction *)
            let guided_execs = r.X.guided.X.stats.Search.executions in
            (match r.X.speedup with
            | Some x ->
              Alcotest.(check bool)
                (Fmt.str "speedup %.1fx >= 10x" x)
                true (x >= 10.0)
            | None ->
              Alcotest.(check bool)
                "random exhausted its 10x cap" true
                (r.X.random.X.violation = None
                && r.X.random_cap >= 10 * guided_execs));
            (* the whole comparison is deterministic: rerunning the
               guided search reproduces the execution count *)
            let sys = X.system ~config:hunt_config "top" in
            let again = Search.guided ~wipe:true ~budget:X.hunt_budget sys in
            Alcotest.(check int)
              "guided executions reproduce" guided_execs
              again.Search.stats.Search.executions));
  ]

let () =
  Alcotest.run "ldfi"
    [
      ("solver", solver_tests);
      ("search", search_tests);
      ("support", support_tests);
      ("duplication", dup_tests);
      ("coverage", coverage_tests @ coverage_fuzz_tests);
      ("hunt", hunt_tests);
    ]
