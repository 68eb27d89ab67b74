open Relax_core
open Relax_objects
open Relax_quorum

(* Cross-validation of the product-search language checker against a
   reference history enumeration: for every automaton pair exercised by
   `rlx check all`, at depths 1..5, the two must agree on inclusion (both
   directions), equivalence, witness histories and the full Section-5
   classification. *)

(* The reference oracle: L(a) ⊆ L(b) by history enumeration.  Every
   accepted history of [a] is replayed through [b], level by level in
   alphabet order, and the first one [b] rejects is the witness.  Prefix
   closure lets a history stop extending as soon as [a] rejects it.  It
   visits one node per accepted history, so it is exponential where the
   product search is not — affordable at these depths only. *)
let included_enum a b ~alphabet ~depth =
  let exception Fail of History.t in
  let extend (h, astates, bstates) =
    List.filter_map
      (fun p ->
        match Automaton.step_set a astates p with
        | [] -> None
        | astates -> (
          let h = History.append h p in
          match Automaton.step_set b bstates p with
          | [] -> raise (Fail h)
          | bstates -> Some (h, astates, bstates)))
      alphabet
  in
  let rec go level remaining =
    if remaining > 0 then
      match List.concat_map extend level with
      | [] -> ()
      | next -> go next (remaining - 1)
  in
  match
    go [ (History.empty, [ Automaton.init a ], [ Automaton.init b ]) ] depth
  with
  | () -> Ok ()
  | exception Fail history ->
    Error
      {
        Language.history;
        holds_in = Automaton.name a;
        fails_in = Automaton.name b;
      }

let equivalent_enum a b ~alphabet ~depth =
  match included_enum a b ~alphabet ~depth with
  | Error c -> Error c
  | Ok () -> included_enum b a ~alphabet ~depth

let queue_alphabet = Queue_ops.alphabet (Queue_ops.universe 2)

let classification_tag = function
  | Language.Equal -> "equal"
  | Language.Left_below_right _ -> "left-below-right"
  | Language.Right_below_left _ -> "right-below-left"
  | Language.Incomparable _ -> "incomparable"

let check_agreement ?(equal = false) name alphabet a b ~depth =
  let ctx fmt = Fmt.str ("%s depth %d: " ^^ fmt) name depth in
  let compare_included dir x y =
    let fast = Language.included x y ~alphabet ~depth
    and slow = included_enum x y ~alphabet ~depth in
    (match (fast, slow) with
    | Ok (), Ok () -> ()
    | Error cf, Error cs ->
      Alcotest.(check bool)
        (ctx "same witness (%s)" dir)
        true
        (History.equal cf.Language.history cs.Language.history)
    | Ok (), Error _ | Error _, Ok () ->
      Alcotest.fail (ctx "inclusion disagreement (%s)" dir));
    Result.is_ok slow
  in
  let incl_ab = compare_included "a<=b" a b in
  let incl_ba = compare_included "b<=a" b a in
  let efast = Language.equivalent a b ~alphabet ~depth
  and eslow = equivalent_enum a b ~alphabet ~depth in
  Alcotest.(check bool)
    (ctx "equivalence") (Result.is_ok eslow) (Result.is_ok efast);
  let expected =
    match (incl_ab, incl_ba) with
    | true, true -> "equal"
    | true, false -> "left-below-right"
    | false, true -> "right-below-left"
    | false, false -> "incomparable"
  in
  Alcotest.(check string)
    (ctx "classification") expected
    (classification_tag (Language.classify a b ~alphabet ~depth));
  if equal then Alcotest.(check string) (ctx "languages") "equal" expected

(* The checker and the reference enumeration agree on [a] and [b] at
   depths 1..5; with [~equal:true] the two languages must also be equal
   at each depth. *)
let pair ?(alphabet = queue_alphabet) ?equal name a b =
  Alcotest.test_case name `Quick (fun () ->
      for depth = 1 to 5 do
        check_agreement ?equal name alphabet a b ~depth
      done)

(* [a] rebuilt without its state hash: the checker then interns its
   states by [equal] alone, which must change nothing but the time. *)
let unhashed a =
  Automaton.make ~name:(Automaton.name a) ~init:(Automaton.init a)
    ~equal:(Automaton.equal_state a) (Automaton.step a)

let q1_q2 = Relation.union Instances.q1 Instances.q2
let a1_a2 = Relation.union Instances.a1 Instances.a2

(* QCA pairs are built over the views-abstracted automata — the form the
   check suite uses; views-vs-history-state agreement has its own pairs
   below. *)
let pq_qca rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.pq_spec_eta rel

let pq_qca' rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.pq_spec_eta' rel

let fifo_qca rel =
  Qca.automaton_views ~alphabet:queue_alphabet Instances.fifo_spec_eta rel

let account_alphabet = Account.alphabet [ 1; 2 ]

let account_qca rel =
  Qca.automaton_views ~alphabet:account_alphabet Instances.account_spec rel

let pq_pairs =
  [
    pair ~equal:true "QCA(PQ,{Q1,Q2},eta) vs PQ" (pq_qca q1_q2) Pqueue.automaton;
    pair ~equal:true "QCA(PQ,{Q1},eta) vs MPQ" (pq_qca Instances.q1) Mpq.automaton;
    pair ~equal:true "QCA(PQ,{Q2},eta) vs OPQ" (pq_qca Instances.q2) Opq.automaton;
    pair ~equal:true "QCA(PQ,{},eta) vs DegenPQ" (pq_qca Relation.empty) Degen.automaton;
    pair ~equal:true "QCA(MPQ,{Q1},delta*) vs MPQ"
      (Qca.automaton_views ~alphabet:queue_alphabet
         (Qca.spec_of_automaton Mpq.automaton)
         Instances.q1)
      Mpq.automaton;
    pair ~equal:true "QCA(PQ,{Q1,Q2},eta') vs PQ" (pq_qca' q1_q2) Pqueue.automaton;
    pair ~equal:true "QCA(PQ,{Q2},eta') vs DPQ" (pq_qca' Instances.q2) Dpq.automaton;
    pair "QCA(PQ,{Q2},eta') vs QCA(PQ,{Q2},eta)" (pq_qca' Instances.q2)
      (pq_qca Instances.q2);
    pair "unhashed PQ vs unhashed MPQ" (unhashed Pqueue.automaton)
      (unhashed Mpq.automaton);
    pair ~equal:true "unhashed MPQ vs QCA(PQ,{Q1},eta)" (unhashed Mpq.automaton)
      (pq_qca Instances.q1);
  ]

(* The points of the queue lattices, each relation with its label. *)
let queue_points =
  [
    ("{Q1,Q2}", q1_q2);
    ("{Q1}", Instances.q1);
    ("{Q2}", Instances.q2);
    ("{}", Relation.empty);
  ]

(* FIFO/eta without its state hash: evaluations then intern into one
   bucket, told apart by [equal] alone. *)
let fifo_spec_unhashed =
  Qca.spec_with_eta ~init:[] ~step:Eta.eta_fifo_step ~pre:Instances.fifo_pre
    ~post:Instances.fifo_post ~equal:Fifo.equal ~name:"FIFO/eta" ()

(* The views automaton numbers evaluations and states in the order
   explorations first reach them, and memoizes every step.  A value
   warmed by earlier explorations must therefore give exactly the
   verdicts, witnesses and checker counters of a fresh one: each
   exploration runs twice on one value and is compared with a fresh
   value's run. *)
let warm_reuse label rel behaviour =
  Alcotest.test_case
    (Fmt.str "QCA(FIFO,%s,eta) warm reuse at depth 6" label)
    `Quick (fun () ->
      let alphabet = queue_alphabet and depth = 6 in
      let run f =
        Language.Stats.reset ();
        let r = f () in
        let s = Language.Stats.read () in
        Fmt.str "%s; %d histories, %d pairs, %d memo hits" r
          s.Language.Stats.histories s.Language.Stats.visited
          s.Language.Stats.memo_hits
      in
      let verdict = function
        | Ok () -> "included"
        | Error c -> Fmt.str "%a" Language.pp_counterexample c
      in
      let explore a =
        let both b =
          [
            run (fun () -> verdict (Language.included a b ~alphabet ~depth));
            run (fun () -> verdict (Language.included b a ~alphabet ~depth));
          ]
        in
        both behaviour @ both Fifo.automaton
        @ [ run (fun () -> string_of_int (Language.size a ~alphabet ~depth)) ]
      in
      let fresh = explore (fifo_qca rel) in
      let a = fifo_qca rel in
      for pass = 1 to 2 do
        Alcotest.(check (list string))
          (Fmt.str "pass %d on one value" pass)
          fresh (explore a)
      done)

let fifo_pairs =
  [
    pair ~equal:true "QCA(FIFO,{Q1,Q2},eta) vs FIFO" (fifo_qca q1_q2) Fifo.automaton;
    pair ~equal:true "QCA(FIFO,{Q1},eta) vs RFQ" (fifo_qca Instances.q1) Rfq.automaton;
    pair ~equal:true "QCA(FIFO,{Q2},eta) vs Bag" (fifo_qca Instances.q2) Bag.automaton;
    pair ~equal:true "QCA(FIFO,{},eta) vs DegenPQ" (fifo_qca Relation.empty)
      Degen.automaton;
  ]
  @ List.map
      (fun (label, rel) ->
        pair ~equal:true
          (Fmt.str "QCA(FIFO,%s,eta) unhashed spec vs hashed" label)
          (Qca.automaton_views ~alphabet:queue_alphabet fifo_spec_unhashed rel)
          (fifo_qca rel))
      queue_points
  @ [
      warm_reuse "{Q1,Q2}" q1_q2 Fifo.automaton;
      warm_reuse "{Q1}" Instances.q1 Rfq.automaton;
      warm_reuse "{Q2}" Instances.q2 Bag.automaton;
      warm_reuse "{}" Relation.empty Degen.automaton;
    ]

let collapse_pairs =
  [
    pair ~equal:true "Semiqueue_1 vs FIFO" (Semiqueue.automaton 1) Fifo.automaton;
    pair ~equal:true "Stuttering_1 vs FIFO" (Stuttering.automaton 1) Fifo.automaton;
    pair ~equal:true "SSqueue_{1,1} vs FIFO" (Ssqueue.automaton ~j:1 ~k:1) Fifo.automaton;
    pair ~equal:true "SSqueue_{1,3} vs Semiqueue_3"
      (Ssqueue.automaton ~j:1 ~k:3)
      (Semiqueue.automaton 3);
    pair ~equal:true "SSqueue_{3,1} vs Stuttering_3"
      (Ssqueue.automaton ~j:3 ~k:1)
      (Stuttering.automaton 3);
    pair "Semiqueue_1 vs Semiqueue_2" (Semiqueue.automaton 1)
      (Semiqueue.automaton 2);
    pair "Stuttering_1 vs Stuttering_2" (Stuttering.automaton 1)
      (Stuttering.automaton 2);
    pair "unhashed Semiqueue_2 vs Semiqueue_1"
      (unhashed (Semiqueue.automaton 2))
      (Semiqueue.automaton 1);
  ]

let account_pairs =
  [
    pair ~alphabet:account_alphabet ~equal:true
      "QCA(Account,{A1,A2}) vs Account"
      (account_qca a1_a2) Account.automaton;
    pair ~alphabet:account_alphabet "QCA(Account,{A1,A2}) vs QCA(Account,{A2})"
      (account_qca a1_a2) (account_qca Instances.a2);
    pair ~alphabet:account_alphabet "QCA(Account,{A1}) vs Account"
      (account_qca Instances.a1) Account.automaton;
  ]

(* QCA(PQ, Q, eta) read literally off Section 3.2: H . p is accepted
   when some Q-view G of H for inv(p) evaluates to a state meeting p's
   precondition, with eta (G . p) meeting its postcondition.  Every step
   regenerates all Q-views of the history — exponential, and the
   reference both QCA constructions in lib/quorum are checked against. *)
let accepts_next rel h p =
  let i = Op.invocation p in
  List.exists
    (fun g ->
      let s = Eta.eta g in
      Instances.pq_pre s i && Instances.pq_post s p (Eta.eta (History.append g p)))
    (View.views rel h i)

let literal_pq_qca rel =
  Automaton.make
    ~name:(Fmt.str "literal QCA(PQ,%s,eta)" (Relation.name rel))
    ~init:History.empty ~equal:History.equal ~hash:History.hash (fun h p ->
      if accepts_next rel h p then [ History.append h p ] else [])

(* The views abstraction itself: the views-state automaton must be
   language-equal to the history-state automaton it quotients, for every
   spec kind (eta, eta', delta*, account) at every lattice point; and both
   must equal the literal definition at every PQ lattice point. *)
let views_pairs =
  let hist spec rel = Qca.automaton spec rel in
  let views ?(alphabet = queue_alphabet) obj eta spec points =
    List.map
      (fun (label, rel) ->
        pair ~alphabet ~equal:true
          (Fmt.str "views vs history-state: QCA(%s,%s%s)" obj label eta)
          (Qca.automaton_views ~alphabet spec rel)
          (hist spec rel))
      points
  in
  let literal rel =
    let name = Relation.name rel in
    [
      pair ~equal:true
        (Fmt.str "literal Q-views vs history-state: QCA(PQ,%s,eta)" name)
        (literal_pq_qca rel)
        (hist Instances.pq_spec_eta rel);
      pair ~equal:true
        (Fmt.str "literal Q-views vs views: QCA(PQ,%s,eta)" name)
        (literal_pq_qca rel) (pq_qca rel);
    ]
  in
  views "PQ" ",eta" Instances.pq_spec_eta queue_points
  @ views "PQ" ",eta'" Instances.pq_spec_eta' queue_points
  @ views "FIFO" ",eta_fifo" Instances.fifo_spec_eta queue_points
  @ views "MPQ" ",delta*"
      (Qca.spec_of_automaton Mpq.automaton)
      [ ("{Q1}", Instances.q1) ]
  @ views ~alphabet:account_alphabet "Account" "" Instances.account_spec
      [
        ("{A1,A2}", a1_a2);
        ("{A1}", Instances.a1);
        ("{A2}", Instances.a2);
        ("{}", Relation.empty);
      ]
  @ List.concat_map literal
      [ Relation.empty; Instances.q1; Instances.q2; q1_q2 ]

(* The product search reports its witness from its own frontier: the
   rendered counterexample must be byte-identical to the enumeration's,
   and a failing inclusion must enumerate no histories on the side. *)
let witness_pairs =
  let witness name a b =
    Alcotest.test_case name `Quick (fun () ->
        let depth = 5 in
        let histories () = (Language.Stats.read ()).Language.Stats.histories in
        let before = histories () in
        let fast = Language.included a b ~alphabet:queue_alphabet ~depth in
        Alcotest.(check int)
          (name ^ ": no histories enumerated")
          before (histories ());
        let slow = included_enum a b ~alphabet:queue_alphabet ~depth in
        match (fast, slow) with
        | Error cf, Error cs ->
          Alcotest.(check string)
            (name ^ ": rendered witness identical")
            (Fmt.str "%a" Language.pp_counterexample cs)
            (Fmt.str "%a" Language.pp_counterexample cf)
        | _ -> Alcotest.fail (name ^ ": expected a failing inclusion"))
  in
  [
    witness "MPQ not below PQ" Mpq.automaton Pqueue.automaton;
    witness "Bag not below FIFO" Bag.automaton Fifo.automaton;
    witness "Semiqueue_2 not below Semiqueue_1" (Semiqueue.automaton 2)
      (Semiqueue.automaton 1);
  ]

(* The intern table maps every id back to the first value interned
   under it, across its growth, and rejects ids it never allocated. *)
let intern_tests =
  [
    Alcotest.test_case "Intern.value inverts Intern.id" `Quick (fun () ->
        (* a coarse hash: most values share a bucket with others *)
        let t = Language.Intern.create (fun v -> v mod 7) Int.equal in
        let values = List.init 100 (fun i -> (i * 37) mod 101) in
        let ids = List.map (Language.Intern.id t) values in
        Alcotest.(check (list int)) "dense ids" (List.init 100 Fun.id) ids;
        List.iter2
          (fun v id ->
            Alcotest.(check int) "re-interned" id (Language.Intern.id t v);
            Alcotest.(check int) "value" v (Language.Intern.value t id))
          values ids;
        List.iter
          (fun id ->
            Alcotest.check_raises
              (Printf.sprintf "id %d" id)
              (Invalid_argument "Language.Intern.value")
              (fun () -> ignore (Language.Intern.value t id)))
          [ -1; 100; 128 ]);
  ]

let () =
  Alcotest.run "language_fast"
    [
      ("intern", intern_tests);
      ("pq", pq_pairs);
      ("fifo", fifo_pairs);
      ("collapses", collapse_pairs);
      ("account", account_pairs);
      ("views", views_pairs);
      ("witness-fallback", witness_pairs);
    ]
