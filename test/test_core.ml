open Relax_core

(* Unit and property tests for the core library: values, operations,
   histories, automata, bounded languages, constraint sets, relaxation
   lattices and the combined environment automaton of Section 2.3. *)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                return Value.Unit;
                map Value.bool bool;
                map Value.int small_signed_int;
                map Value.str (string_size (return 3));
              ]
          else
            frequency
              [
                (2, map Value.int small_signed_int);
                (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
                (1, map Value.list (list_size (int_bound 3) (self (n / 4))));
              ])
        (min n 12))

let arb_value = QCheck.make ~print:Value.to_string value_gen

let value_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"Value.compare is reflexive" ~count:200 arb_value
        (fun v -> Value.compare v v = 0);
      QCheck.Test.make ~name:"Value.compare is antisymmetric" ~count:200
        (QCheck.pair arb_value arb_value) (fun (a, b) ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          (c1 = 0 && c2 = 0) || c1 * c2 < 0);
      QCheck.Test.make ~name:"Value.compare is transitive" ~count:200
        (QCheck.triple arb_value arb_value arb_value) (fun (a, b, c) ->
          let le x y = Value.compare x y <= 0 in
          (not (le a b && le b c)) || le a c);
      QCheck.Test.make ~name:"Value.equal agrees with compare" ~count:200
        (QCheck.pair arb_value arb_value) (fun (a, b) ->
          Value.equal a b = (Value.compare a b = 0));
    ]

let value_tests =
  [
    Alcotest.test_case "constructor ordering is stable" `Quick (fun () ->
        Alcotest.(check bool)
          "unit < bool" true
          (Value.compare Value.unit (Value.bool false) < 0);
        Alcotest.(check bool)
          "bool < int" true
          (Value.compare (Value.bool true) (Value.int 0) < 0);
        Alcotest.(check bool)
          "int < str" true
          (Value.compare (Value.int 99) (Value.str "a") < 0));
    Alcotest.test_case "projections" `Quick (fun () ->
        Alcotest.(check (option int))
          "to_int" (Some 7)
          (Value.to_int (Value.int 7));
        Alcotest.(check (option int))
          "to_int of str" None
          (Value.to_int (Value.str "x"));
        Alcotest.(check int) "get_int" 7 (Value.get_int (Value.int 7));
        Alcotest.check_raises "get_int of bool"
          (Invalid_argument "Value.get_int") (fun () ->
            ignore (Value.get_int (Value.bool true))));
    Alcotest.test_case "printing" `Quick (fun () ->
        Alcotest.(check string)
          "pair" "(1, [2; 3])"
          (Value.to_string
             (Value.pair (Value.int 1)
                (Value.list [ Value.int 2; Value.int 3 ]))));
  ]
  @ value_qcheck

(* ------------------------------------------------------------------ *)
(* Op and History                                                      *)
(* ------------------------------------------------------------------ *)

let enq i = Op.make "Enq" ~args:[ Value.int i ]
let deq i = Op.make "Deq" ~results:[ Value.int i ]

let op_tests =
  [
    Alcotest.test_case "invocation equality ignores responses" `Quick
      (fun () ->
        let a = Op.make "Deq" ~results:[ Value.int 1 ] in
        let b = Op.make "Deq" ~results:[ Value.int 2 ] in
        Alcotest.(check bool) "ops differ" false (Op.equal a b);
        Alcotest.(check bool)
          "invocations equal" true
          (Op.equal_invocation (Op.invocation a) (Op.invocation b)));
    Alcotest.test_case "with_response completes an invocation" `Quick
      (fun () ->
        let op =
          Op.with_response (Op.inv "Deq") ~term:"Ok" ~results:[ Value.int 3 ]
        in
        Alcotest.(check bool) "equals deq 3" true (Op.equal op (deq 3)));
    Alcotest.test_case "rendering" `Quick (fun () ->
        Alcotest.(check string) "enq" "Enq(5)/Ok()" (Op.to_string (enq 5)));
  ]

(* ------------------------------------------------------------------ *)
(* Format-free renderers                                               *)
(* ------------------------------------------------------------------ *)

(* The Format printers the string renderers replaced, kept as the
   reference: [Value.to_string], [Op.to_string], [Op.pp_invocation] and
   [Timestamp.to_string] must produce exactly their bytes. *)
module Format_ref = struct
  let rec value ppf = function
    | Value.Unit -> Fmt.string ppf "()"
    | Value.Bool b -> Fmt.bool ppf b
    | Value.Int i -> Fmt.int ppf i
    | Value.Str s -> Fmt.string ppf s
    | Value.Pair (a, b) -> Fmt.pf ppf "(%a, %a)" value a value b
    | Value.List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") value) vs

  let values = Fmt.list ~sep:(Fmt.any ", ") value

  let op ppf o =
    Fmt.pf ppf "%s(%a)/%s(%a)" (Op.name o) values (Op.args o) (Op.term o)
      values (Op.results o)

  let invocation ppf i =
    Fmt.pf ppf "%s(%a)" (Op.invocation_name i) values (Op.invocation_args i)

  let timestamp ppf t =
    Fmt.pf ppf "%d:%02d" (Relax_quorum.Timestamp.time t)
      (Relax_quorum.Timestamp.site t)
end

(* Nested values over every constructor, with strings long enough to
   pass Format's margin and characters Format treats specially in
   format strings ('@', '%', spaces, newlines). *)
let render_value_gen =
  let open QCheck.Gen in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '@'; '%'; ','; ';'; '\n' ])
      (int_bound 90)
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                return Value.Unit;
                map Value.bool bool;
                map Value.int int;
                map Value.str text;
              ]
          else
            frequency
              [
                (1, map Value.str text);
                (2, map2 Value.pair (self (n / 2)) (self (n / 2)));
                (2, map Value.list (list_size (int_bound 4) (self (n / 3))));
              ])
        (min n 16))

let render_op_gen =
  let open QCheck.Gen in
  let vals = list_size (int_bound 3) render_value_gen in
  map
    (fun (name, args, term, results) -> Op.make name ~args ~term ~results)
    (quad (oneofl [ "Enq"; "Deq"; "Credit"; "" ]) vals (oneofl [ "Ok"; "Bounce"; "" ]) vals)

let render_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"Value.to_string and pp match Format" ~count:500
        (QCheck.make ~print:(Fmt.str "%a" Format_ref.value) render_value_gen)
        (fun v ->
          let want = Fmt.str "%a" Format_ref.value v in
          Value.to_string v = want && Fmt.str "%a" Value.pp v = want);
      QCheck.Test.make ~name:"Op.to_string, pp and pp_invocation match Format"
        ~count:500
        (QCheck.make ~print:(Fmt.str "%a" Format_ref.op) render_op_gen)
        (fun o ->
          let want = Fmt.str "%a" Format_ref.op o in
          Op.to_string o = want
          && Fmt.str "%a" Op.pp o = want
          && Fmt.str "%a" Op.pp_invocation (Op.invocation o)
             = Fmt.str "%a" Format_ref.invocation (Op.invocation o));
      QCheck.Test.make ~name:"Timestamp.to_string and pp match Format" ~count:500
        (QCheck.pair
           (QCheck.oneof [ QCheck.small_nat; QCheck.int_range 0 max_int ])
           (QCheck.oneof [ QCheck.int_range 0 12; QCheck.int_range 0 max_int ]))
        (fun (time, site) ->
          let t = Relax_quorum.Timestamp.make ~time ~site in
          let want = Fmt.str "%a" Format_ref.timestamp t in
          Relax_quorum.Timestamp.to_string t = want
          && Fmt.str "%a" Relax_quorum.Timestamp.pp t = want);
      (* inside a box with break hints around them, one rendered token
         must lay out exactly like the pieces Format used to print *)
      QCheck.Test.make ~name:"rendered values lay out like Format in boxes"
        ~count:200
        (QCheck.make
           QCheck.Gen.(list_size (int_bound 6) render_value_gen))
        (fun vs ->
          let boxed pp = Fmt.str "@[<hov 2>%a@]" (Fmt.list ~sep:Fmt.sp pp) vs in
          boxed Value.pp = boxed Format_ref.value);
    ]

let history_tests =
  [
    Alcotest.test_case "append and length" `Quick (fun () ->
        let h =
          History.append (History.append History.empty (enq 1)) (deq 1)
        in
        Alcotest.(check int) "length" 2 (History.length h));
    Alcotest.test_case "subsequences count 2^n" `Quick (fun () ->
        Alcotest.(check int)
          "count" 8
          (List.length (History.subsequences [ enq 1; enq 2; deq 1 ])));
    Alcotest.test_case "prefixes include empty and full" `Quick (fun () ->
        let h = [ enq 1; enq 2 ] in
        let ps = History.prefixes h in
        Alcotest.(check int) "count" 3 (List.length ps);
        Alcotest.(check bool)
          "first empty" true
          (History.is_empty (List.hd ps));
        Alcotest.(check bool) "last is h" true (History.equal h (List.nth ps 2)));
    Alcotest.test_case "is_subhistory respects order" `Quick (fun () ->
        let h = [ enq 1; enq 2; deq 1 ] in
        Alcotest.(check bool)
          "subseq" true
          (History.is_subhistory [ enq 1; deq 1 ] h);
        Alcotest.(check bool)
          "order matters" false
          (History.is_subhistory [ deq 1; enq 1 ] h));
    Alcotest.test_case "before takes a strict prefix" `Quick (fun () ->
        let h = [ enq 1; enq 2; deq 1 ] in
        Alcotest.(check bool)
          "before 2" true
          (History.equal [ enq 1; enq 2 ] (History.before h 2)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every subsequence is a subhistory" ~count:50
         (QCheck.list_of_size (QCheck.Gen.int_bound 6)
            (QCheck.map enq QCheck.small_int))
         (fun h ->
           List.for_all
             (fun g -> History.is_subhistory g h)
             (History.subsequences h)));
  ]

(* ------------------------------------------------------------------ *)
(* Automaton and Language                                              *)
(* ------------------------------------------------------------------ *)

(* A tiny counter object: Inc, and a Dec that refuses below zero. *)
let counter =
  Automaton.deterministic ~name:"counter" ~init:0 ~equal:Int.equal
    (fun n op ->
      match Op.name op with
      | "Inc" -> Some (n + 1)
      | "Dec" -> if n > 0 then Some (n - 1) else None
      | _ -> None)

let inc = Op.make "Inc"
let dec = Op.make "Dec"

let automaton_tests =
  [
    Alcotest.test_case "run and accepts" `Quick (fun () ->
        Alcotest.(check bool)
          "inc inc dec" true
          (Automaton.accepts counter [ inc; inc; dec ]);
        Alcotest.(check bool) "dec first" false (Automaton.accepts counter [ dec ]));
    Alcotest.test_case "product accepts the intersection" `Quick (fun () ->
        let bounded = Automaton.restrict counter (fun n -> n <= 1) in
        let p = Automaton.product ~name:"both" counter bounded in
        Alcotest.(check bool) "inc ok" true (Automaton.accepts p [ inc ]);
        Alcotest.(check bool)
          "inc inc rejected" false
          (Automaton.accepts p [ inc; inc ]));
    Alcotest.test_case "nondeterministic frontier deduplicates" `Quick
      (fun () ->
        let either =
          Automaton.make ~name:"either" ~init:0 ~equal:Int.equal (fun n op ->
              match Op.name op with "Step" -> [ n + 1; n + 1 ] | _ -> [])
        in
        Alcotest.(check int)
          "one state" 1
          (List.length (Automaton.run either [ Op.make "Step"; Op.make "Step" ])));
    Alcotest.test_case "map_state transports behavior" `Quick (fun () ->
        let doubled =
          Automaton.map_state ~name:"doubled"
            ~forward:(fun n -> 2 * n)
            ~backward:(fun n -> n / 2)
            ~equal:Int.equal counter
        in
        Alcotest.(check bool)
          "accepts same" true
          (Automaton.accepts doubled [ inc; dec ]));
  ]

let language_tests =
  let alphabet = [ inc; dec ] in
  [
    Alcotest.test_case "census counts ballot sequences" `Quick (fun () ->
        Alcotest.(check (list int))
          "census" [ 1; 1; 2; 3; 6 ]
          (Language.census counter ~alphabet ~depth:4));
    Alcotest.test_case "strict inclusion with witness" `Quick (fun () ->
        let free =
          Automaton.deterministic ~name:"free" ~init:()
            ~equal:(fun () () -> true)
            (fun () _ -> Some ())
        in
        (match Language.included counter free ~alphabet ~depth:4 with
        | Ok () -> ()
        | Error c -> Alcotest.failf "%a" Language.pp_counterexample c);
        match Language.strictly_included counter free ~alphabet ~depth:4 with
        | Ok (Some w) ->
          Alcotest.(check bool)
            "witness rejected by counter" false
            (Automaton.accepts counter w)
        | Ok None -> Alcotest.fail "inclusion should be strict"
        | Error c -> Alcotest.failf "%a" Language.pp_counterexample c);
    Alcotest.test_case "equivalence reports the right direction" `Quick
      (fun () ->
        let lazy_counter =
          Automaton.deterministic ~name:"lazy" ~init:0 ~equal:Int.equal
            (fun n op ->
              match Op.name op with
              | "Inc" -> Some (n + 1)
              | "Dec" -> Some (max 0 (n - 1))
              | _ -> None)
        in
        match Language.equivalent counter lazy_counter ~alphabet ~depth:3 with
        | Ok () -> Alcotest.fail "should differ"
        | Error c ->
          Alcotest.(check string) "direction" "lazy" c.Language.holds_in);
    Alcotest.test_case "size equals census sum" `Quick (fun () ->
        let total = List.fold_left ( + ) 0 (Language.census counter ~alphabet ~depth:4) in
        Alcotest.(check int) "size" total (Language.size counter ~alphabet ~depth:4));
  ]

(* ------------------------------------------------------------------ *)
(* Cset and Relaxation                                                 *)
(* ------------------------------------------------------------------ *)

let cset_tests =
  [
    Alcotest.test_case "subsets of a 3-vocabulary" `Quick (fun () ->
        let subs = Cset.subsets [ "A"; "B"; "C" ] in
        Alcotest.(check int) "count" 8 (List.length subs);
        Alcotest.(check bool) "smallest first" true (Cset.is_empty (List.hd subs)));
    Alcotest.test_case "strict subset" `Quick (fun () ->
        let a = Cset.of_list [ "A" ] and ab = Cset.of_list [ "A"; "B" ] in
        Alcotest.(check bool) "A ⊂ AB" true (Cset.strict_subset a ab);
        Alcotest.(check bool) "AB ⊄ AB" false (Cset.strict_subset ab ab));
    Alcotest.test_case "set algebra" `Quick (fun () ->
        let a = Cset.of_list [ "A"; "B" ] and b = Cset.of_list [ "B"; "C" ] in
        Alcotest.(check int) "union" 3 (Cset.cardinal (Cset.union a b));
        Alcotest.(check int) "inter" 1 (Cset.cardinal (Cset.inter a b));
        Alcotest.(check int) "diff" 1 (Cset.cardinal (Cset.diff a b)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subsets count is 2^n" ~count:20
         (QCheck.int_range 0 6) (fun n ->
           let names = List.init n (fun i -> Fmt.str "c%d" i) in
           List.length (Cset.subsets names) = 1 lsl n));
  ]

(* A hand-rolled relaxation lattice over the counter: the constraint
   "bounded" caps the counter at 1. *)
let counter_lattice =
  Relaxation.make ~name:"counter" ~constraints:[ "bounded" ] (fun c ->
      if Cset.mem "bounded" c then
        Automaton.rename
          (Automaton.restrict counter (fun n -> n <= 1))
          "capped"
      else counter)

let relaxation_tests =
  let alphabet = [ inc; dec ] in
  [
    Alcotest.test_case "monotone lattice passes" `Quick (fun () ->
        Alcotest.(check int)
          "no violations" 0
          (List.length
             (Relaxation.check_monotone counter_lattice ~alphabet ~depth:4)));
    Alcotest.test_case "non-monotone lattice is caught" `Quick (fun () ->
        let bad =
          Relaxation.make ~name:"bad" ~constraints:[ "x" ] (fun c ->
              if Cset.mem "x" c then counter
              else Automaton.restrict counter (fun n -> n <= 1))
        in
        Alcotest.(check bool)
          "violations found" true
          (Relaxation.check_monotone bad ~alphabet ~depth:4 <> []));
    Alcotest.test_case "behavior classes group equal languages" `Quick
      (fun () ->
        Alcotest.(check int)
          "two classes" 2
          (List.length
             (Relaxation.behavior_classes counter_lattice ~alphabet ~depth:4)));
    Alcotest.test_case "preferred is the top" `Quick (fun () ->
        Alcotest.(check string)
          "name" "capped"
          (Automaton.name (Relaxation.preferred counter_lattice)));
    Alcotest.test_case "phi outside the domain raises" `Quick (fun () ->
        let l =
          Relaxation.make ~name:"dom" ~constraints:[ "a" ]
            ~in_domain:(fun c -> not (Cset.is_empty c))
            (fun _ -> counter)
        in
        Alcotest.(check int) "domain size" 1 (List.length (Relaxation.domain l));
        match Relaxation.phi l Cset.empty with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ------------------------------------------------------------------ *)
(* Environment (Section 2.3)                                           *)
(* ------------------------------------------------------------------ *)

let environment_tests =
  let crash = Op.make "Crash" in
  let repair = Op.make "Repair" in
  let env =
    Environment.of_event_names ~name:"crashy"
      ~init:(Cset.singleton "bounded")
      ~events:[ "Crash"; "Repair" ]
      (fun c p ->
        match Op.name p with
        | "Crash" -> Cset.empty
        | "Repair" -> Cset.singleton "bounded"
        | _ -> c)
  in
  let combined =
    Environment.combine env counter_lattice ~is_operation:(fun p ->
        List.mem (Op.name p) [ "Inc"; "Dec" ])
  in
  [
    Alcotest.test_case "events move the constraint state" `Quick (fun () ->
        Alcotest.(check bool)
          "crash relaxes" true
          (Cset.is_empty
             (Environment.apply env (Cset.singleton "bounded") crash)));
    Alcotest.test_case "combined automaton degrades after a crash" `Quick
      (fun () ->
        Alcotest.(check bool)
          "capped initially" false
          (Automaton.accepts combined [ inc; inc ]);
        Alcotest.(check bool)
          "relaxed after crash" true
          (Automaton.accepts combined [ crash; inc; inc ]);
        Alcotest.(check bool)
          "restored after repair" false
          (Automaton.accepts combined [ crash; inc; inc; repair; inc ]));
    Alcotest.test_case "foreign inputs are rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "bogus op" false
          (Automaton.accepts combined [ Op.make "Bogus" ]));
    Alcotest.test_case "static environment never changes" `Quick (fun () ->
        let s = Environment.static ~init:Cset.empty in
        Alcotest.(check bool)
          "apply is identity" true
          (Cset.is_empty (Environment.apply s Cset.empty crash)));
  ]

let () =
  Alcotest.run "core"
    [
      ("value", value_tests);
      ("op", op_tests);
      ("render", render_tests);
      ("history", history_tests);
      ("automaton", automaton_tests);
      ("language", language_tests);
      ("cset", cset_tests);
      ("relaxation", relaxation_tests);
      ("environment", environment_tests);
    ]
