open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica

(* Tests for the quorum machinery (timestamps, logs, views, QCA inputs,
   serial dependency, assignments) and the message-passing replica
   runtime. *)

(* ------------------------------------------------------------------ *)
(* Timestamp                                                           *)
(* ------------------------------------------------------------------ *)

let ts t s = Timestamp.make ~time:t ~site:s

let timestamp_tests =
  [
    Alcotest.test_case "total order is lexicographic" `Quick (fun () ->
        Alcotest.(check bool) "time first" true (Timestamp.compare (ts 1 9) (ts 2 0) < 0);
        Alcotest.(check bool) "site breaks ties" true (Timestamp.compare (ts 1 0) (ts 1 1) < 0));
    Alcotest.test_case "tick advances past the input" `Quick (fun () ->
        let t' = Timestamp.tick (ts 5 2) ~site:1 in
        Alcotest.(check bool) "greater" true (Timestamp.compare t' (ts 5 2) > 0);
        Alcotest.(check int) "site stamped" 1 (Timestamp.site t'));
    Alcotest.test_case "merge takes the max" `Quick (fun () ->
        Alcotest.(check bool)
          "max" true
          (Timestamp.equal (Timestamp.merge (ts 3 1) (ts 2 9)) (ts 3 1)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge is commutative and idempotent" ~count:100
         (QCheck.pair (QCheck.pair QCheck.small_nat QCheck.small_nat)
            (QCheck.pair QCheck.small_nat QCheck.small_nat))
         (fun ((t1, s1), (t2, s2)) ->
           let a = ts t1 s1 and b = ts t2 s2 in
           Timestamp.equal (Timestamp.merge a b) (Timestamp.merge b a)
           && Timestamp.equal (Timestamp.merge a a) a));
  ]

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let entry t s op = Log.entry ~ts:(ts t s) op

let sample_log =
  Log.of_entries
    [
      entry 2 2 (Queue_ops.enq_int 3);
      entry 1 1 (Queue_ops.enq_int 1);
      entry 3 1 (Queue_ops.deq_int 3);
    ]

(* The sorted-list log the indexed [Log] replaced, kept as the reference
   model: entries sorted by (timestamp, operation), duplicates removed,
   O(n) insert and O(n·m) merge. *)
module List_log = struct
  let rec insert l e =
    match l with
    | [] -> [ e ]
    | x :: rest ->
      let c = Log.compare_entry e x in
      if c = 0 then l else if c < 0 then e :: l else x :: insert rest e

  let of_entries es = List.fold_left insert [] es
  let merge a b = List.fold_left insert a b
  let to_history l = List.map Log.entry_op l

  let max_ts l =
    List.fold_left (fun acc e -> Timestamp.merge acc (Log.entry_ts e)) Timestamp.zero l

  let filter = List.filter

  let split_at_watermark l ts =
    List.partition (fun e -> Timestamp.compare (Log.entry_ts e) ts <= 0) l

  let compact l ~watermark ~summary =
    let prefix, rest = split_at_watermark l watermark in
    if prefix = [] then l
    else begin
      if List.length summary > Timestamp.time watermark then
        invalid_arg "Log.compact: summary longer than the time budget";
      let synthetic =
        List.mapi (fun i op -> Log.entry ~ts:(ts (i + 1) 0) op) summary
      in
      of_entries (synthetic @ rest)
    end

  let equal a b = List.length a = List.length b && List.for_all2 Log.equal_entry a b
end

(* Entries over a small space of timestamps and operations, so that
   duplicates, equal timestamps with different operations, and prefixes
   shared between logs are all common. *)
let model_entry_gen =
  QCheck.Gen.(
    map3
      (fun t s op -> entry t s op)
      (int_bound 6) (int_bound 2)
      (oneof
         [
           map Queue_ops.enq_int (int_range 1 3);
           map Queue_ops.deq_int (int_range 1 3);
         ]))

type model_case = {
  a : Log.entry list;
  b : Log.entry list;
  e : Log.entry;
  watermark : Timestamp.t;
  summary : Op.t list;
}

let model_case_gen =
  QCheck.Gen.(
    let entries = list_size (int_bound 12) model_entry_gen in
    map
      (fun ((a, b), (e, (wt, ws)), n) ->
        {
          a;
          b;
          e;
          watermark = ts wt ws;
          summary = List.init n (fun i -> Queue_ops.enq_int (i + 1));
        })
      (triple (pair entries entries)
         (pair model_entry_gen (pair (int_bound 7) (int_bound 2)))
         (int_bound 8)))

let print_model_case c =
  let es l = Fmt.str "[%a]" Fmt.(list ~sep:(any "; ") Log.pp_entry) l in
  Fmt.str "a=%s b=%s e=%a watermark=%a summary=%d" (es c.a) (es c.b)
    Log.pp_entry c.e Timestamp.pp c.watermark (List.length c.summary)

(* Does the indexed log hold exactly the model's entries, in order? *)
let agrees log model = List_log.equal (Log.entries log) model

let log_model_test =
  QCheck.Test.make ~name:"indexed log agrees with the sorted-list model"
    ~count:500
    (QCheck.make ~print:print_model_case model_case_gen)
    (fun c ->
      let la = Log.of_entries c.a and lb = Log.of_entries c.b in
      let ma = List_log.of_entries c.a and mb = List_log.of_entries c.b in
      let keep e =
        let t = Log.entry_ts e in
        (Timestamp.time t + Timestamp.site t) mod 2 = 0
      in
      let outcome f = try Ok (f ()) with Invalid_argument m -> Error m in
      let split_l = Log.split_at_watermark la c.watermark
      and split_m = List_log.split_at_watermark ma c.watermark in
      agrees la ma
      && Log.length la = List.length ma
      && agrees (Log.insert la c.e) (List_log.insert ma c.e)
      && Log.mem la c.e = List.exists (Log.equal_entry c.e) ma
      && agrees (Log.remove la c.e)
           (List.filter (fun x -> not (Log.equal_entry x c.e)) ma)
      && agrees (Log.merge la lb) (List_log.merge ma mb)
      && agrees (Log.filter keep la) (List_log.filter keep ma)
      && List_log.equal (fst split_l) (fst split_m)
      && List_log.equal (snd split_l) (snd split_m)
      && (match
            ( outcome (fun () ->
                  Log.entries (Log.compact la ~watermark:c.watermark ~summary:c.summary)),
              outcome (fun () ->
                  List_log.compact ma ~watermark:c.watermark ~summary:c.summary) )
          with
         | Ok l, Ok m -> List_log.equal l m
         | Error x, Error y -> x = y
         | _ -> false)
      && Timestamp.equal (Log.max_ts la) (List_log.max_ts ma)
      && History.equal (Log.to_history la) (List_log.to_history ma)
      && Log.equal la lb = List_log.equal ma mb
      && Log.equal la (Log.of_entries (List.rev c.a @ c.a))
      && Log.is_empty la = (ma = []))

let log_tests =
  [
    Alcotest.test_case "the Section 3.1 schematic three-site log" `Quick
      (fun () ->
        (* S1: 1:01 Enq(x), 2:02 Enq(z); S2: 1:01 Enq(x), 1:03 Enq(y);
           S3: 1:03 Enq(y), 2:02 Enq(z).  Merging in timestamp order,
           discarding duplicates, reconstructs x, y, z. *)
        let x = Queue_ops.enq_int 1
        and y = Queue_ops.enq_int 2
        and z = Queue_ops.enq_int 3 in
        let s1 = Log.of_entries [ entry 1 1 x; entry 2 2 z ] in
        let s2 = Log.of_entries [ entry 1 1 x; entry 1 3 y ] in
        let s3 = Log.of_entries [ entry 1 3 y; entry 2 2 z ] in
        let merged = Log.merge (Log.merge s1 s2) s3 in
        Alcotest.(check int) "three entries" 3 (Log.length merged);
        Alcotest.(check bool)
          "current value ins(ins(ins(emp,x),y),z)" true
          (History.equal (Log.to_history merged) [ x; y; z ]));
    Alcotest.test_case "entries come out in timestamp order" `Quick
      (fun () ->
        let h = Log.to_history sample_log in
        Alcotest.(check bool)
          "order" true
          (History.equal h
             [ Queue_ops.enq_int 1; Queue_ops.enq_int 3; Queue_ops.deq_int 3 ]));
    Alcotest.test_case "merge discards duplicates" `Quick (fun () ->
        let merged = Log.merge sample_log sample_log in
        Alcotest.(check int) "length" 3 (Log.length merged));
    Alcotest.test_case "max_ts" `Quick (fun () ->
        Alcotest.(check bool)
          "3:01" true
          (Timestamp.equal (Log.max_ts sample_log) (ts 3 1)));
    QCheck_alcotest.to_alcotest
      (let arb_log =
         QCheck.map
           (fun entries ->
             Log.of_entries
               (List.map (fun (t, s, e) -> entry t s (Queue_ops.enq_int e)) entries))
           (QCheck.list_of_size (QCheck.Gen.int_bound 6)
              (QCheck.triple (QCheck.int_range 0 4) (QCheck.int_range 0 2)
                 (QCheck.int_range 1 3)))
       in
       QCheck.Test.make ~name:"merge is assoc/comm/idempotent" ~count:100
         (QCheck.triple arb_log arb_log arb_log) (fun (a, b, c) ->
           Log.equal (Log.merge a b) (Log.merge b a)
           && Log.equal (Log.merge a (Log.merge b c)) (Log.merge (Log.merge a b) c)
           && Log.equal (Log.merge a a) a));
    QCheck_alcotest.to_alcotest log_model_test;
  ]

(* ------------------------------------------------------------------ *)
(* Views (Definitions 1 and 2)                                         *)
(* ------------------------------------------------------------------ *)

let view_tests =
  let h =
    [ Queue_ops.enq_int 1; Queue_ops.enq_int 2; Queue_ops.deq_int 2 ]
  in
  let deq_inv = Op.inv Queue_ops.deq_name in
  [
    Alcotest.test_case "empty relation: all subsequences are views" `Quick
      (fun () ->
        Alcotest.(check int)
          "count" 8
          (List.length (View.views Relation.empty h deq_inv)));
    Alcotest.test_case "Q1 views contain every Enq" `Quick (fun () ->
        let views = View.views Instances.q1 h deq_inv in
        Alcotest.(check bool)
          "all contain both enqs" true
          (List.for_all
             (fun g ->
               History.is_subhistory [ Queue_ops.enq_int 1 ] g
               && History.is_subhistory [ Queue_ops.enq_int 2 ] g)
             views);
        (* the deq is optional: 2 views *)
        Alcotest.(check int) "count" 2 (List.length views));
    Alcotest.test_case "Q2 closure pulls in earlier deqs transitively"
      `Quick (fun () ->
        let views = View.views Instances.q2 h deq_inv in
        Alcotest.(check bool)
          "every view contains the deq" true
          (List.for_all
             (fun g -> History.is_subhistory [ Queue_ops.deq_int 2 ] g)
             views));
    Alcotest.test_case "is_view agrees with views" `Quick (fun () ->
        let g = [ Queue_ops.enq_int 1; Queue_ops.enq_int 2 ] in
        Alcotest.(check bool) "yes" true (View.is_view Instances.q1 h deq_inv g);
        Alcotest.(check bool)
          "no (missing enq)" false
          (View.is_view Instances.q1 h deq_inv [ Queue_ops.enq_int 1 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Serial dependency and assignments                                   *)
(* ------------------------------------------------------------------ *)

let alphabet = Queue_ops.alphabet (Queue_ops.universe 2)

let serial_tests =
  [
    Alcotest.test_case "{Q1,Q2} is serial for PQ; parts are not" `Slow
      (fun () ->
        let full = Relation.union Instances.q1 Instances.q2 in
        Alcotest.(check bool)
          "full" true
          (Serial.is_serial_dependency Pqueue.automaton full ~alphabet ~depth:4);
        Alcotest.(check bool)
          "q1 only" false
          (Serial.is_serial_dependency Pqueue.automaton Instances.q1 ~alphabet
             ~depth:4);
        Alcotest.(check bool)
          "q2 only" false
          (Serial.is_serial_dependency Pqueue.automaton Instances.q2 ~alphabet
             ~depth:4));
    Alcotest.test_case "{Q1,Q2} is minimal for PQ" `Slow (fun () ->
        let full = Relation.union Instances.q1 Instances.q2 in
        Alcotest.(check int)
          "no smaller relation works" 0
          (List.length
             (Serial.non_minimal_witnesses Pqueue.automaton full ~alphabet
                ~depth:4)));
    Alcotest.test_case "violations come with a replayable counterexample"
      `Slow (fun () ->
        match
          Serial.find_violation Pqueue.automaton Instances.q1 ~alphabet
            ~depth:4
        with
        | None -> Alcotest.fail "expected a violation"
        | Some c ->
          Alcotest.(check bool)
            "G.p accepted" true
            (Automaton.accepts Pqueue.automaton
               (History.append c.Serial.view c.Serial.op));
          Alcotest.(check bool)
            "H.p rejected" false
            (Automaton.accepts Pqueue.automaton
               (History.append c.Serial.history c.Serial.op)));
  ]

let assignment_tests =
  [
    Alcotest.test_case "intersection iff thresholds exceed n" `Quick
      (fun () ->
        let a =
          Assignment.make ~n:5
            [
              ("Enq", { Assignment.initial = 0; final = 3 });
              ("Deq", { Assignment.initial = 3; final = 3 });
            ]
        in
        Alcotest.(check bool)
          "deq-enq" true
          (Assignment.forces_intersection a ~inv:"Deq" ~op:"Enq");
        Alcotest.(check bool)
          "enq-enq" false
          (Assignment.forces_intersection a ~inv:"Enq" ~op:"Enq"));
    Alcotest.test_case "induced relation realizes Q1 and Q2" `Quick
      (fun () ->
        let a =
          Assignment.make ~n:5
            [
              (Queue_ops.enq_name, { Assignment.initial = 0; final = 3 });
              (Queue_ops.deq_name, { Assignment.initial = 3; final = 3 });
            ]
        in
        Alcotest.(check bool)
          "satisfies both" true
          (Assignment.satisfies a
             (Relation.union Instances.q1 Instances.q2)));
    Alcotest.test_case "availability needs both quorums" `Quick (fun () ->
        let a =
          Assignment.make ~n:5
            [ ("Deq", { Assignment.initial = 3; final = 2 }) ]
        in
        Alcotest.(check bool) "3 up ok" true (Assignment.available a ~up:3 "Deq");
        Alcotest.(check bool) "2 up not" false (Assignment.available a ~up:2 "Deq"));
    Alcotest.test_case "enumerate_satisfying finds minimal assignments"
      `Quick (fun () ->
        let rel = Relation.of_pairs ~name:"t" [ ("Deq", "Enq") ] in
        let minimal =
          Assignment.enumerate_satisfying ~minimal_only:true ~n:3
            ~ops:[ "Enq"; "Deq" ] rel
        in
        Alcotest.(check bool) "nonempty" true (minimal <> []);
        List.iter
          (fun a ->
            Alcotest.(check bool)
              "satisfies" true (Assignment.satisfies a rel))
          minimal);
  ]

(* ------------------------------------------------------------------ *)
(* Replica runtime                                                     *)
(* ------------------------------------------------------------------ *)

let pq_assignment ~n =
  let maj = (n / 2) + 1 in
  Assignment.make ~n
    [
      (Queue_ops.enq_name, { Assignment.initial = 0; final = maj });
      (Queue_ops.deq_name, { Assignment.initial = maj; final = maj });
    ]

let run_ops replica engine ops =
  List.map
    (fun inv ->
      let result = ref None in
      Replica.execute replica ~client_site:0 inv (fun r -> result := Some r);
      Relax_sim.Engine.run
        ~until:(Relax_sim.Engine.now engine +. 1_000.0)
        engine;
      !result)
    ops

let replica_tests =
  [
    Alcotest.test_case "fault-free run is one-copy serializable" `Quick
      (fun () ->
        let engine = Relax_sim.Engine.create ~seed:1 () in
        let net = Relax_sim.Network.create engine ~sites:5 in
        let replica =
          Replica.create engine net (pq_assignment ~n:5)
            ~respond:Choosers.pq_eta
        in
        let results =
          run_ops replica engine
            [
              Op.inv Queue_ops.enq_name ~args:[ Value.int 1 ];
              Op.inv Queue_ops.enq_name ~args:[ Value.int 3 ];
              Op.inv Queue_ops.deq_name;
              Op.inv Queue_ops.deq_name;
            ]
        in
        Alcotest.(check int)
          "all completed" 4
          (List.length
             (List.filter
                (function Some (Replica.Completed _) -> true | _ -> false)
                results));
        let h = Replica.completed_history replica in
        Alcotest.(check bool)
          "history in L(PQ)" true
          (Automaton.accepts Pqueue.automaton h));
    Alcotest.test_case "deq on an empty queue is refused" `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:2 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        match run_ops replica engine [ Op.inv Queue_ops.deq_name ] with
        | [ Some (Replica.Unavailable _) ] -> ()
        | _ -> Alcotest.fail "expected Unavailable");
    Alcotest.test_case "too many crashes make operations unavailable" `Quick
      (fun () ->
        let engine = Relax_sim.Engine.create ~seed:3 () in
        let net = Relax_sim.Network.create engine ~sites:5 in
        let replica =
          Replica.create ~timeout:50.0 engine net (pq_assignment ~n:5)
            ~respond:Choosers.pq_eta
        in
        Relax_sim.Network.crash net 2;
        Relax_sim.Network.crash net 3;
        Relax_sim.Network.crash net 4;
        match
          run_ops replica engine [ Op.inv Queue_ops.deq_name ]
        with
        | [ Some (Replica.Unavailable _) ] ->
          Alcotest.(check int)
            "counted" 1
            (Replica.unavailable_count replica)
        | _ -> Alcotest.fail "expected Unavailable");
    Alcotest.test_case "timed-out operations leave no entries behind"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:4 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create ~timeout:50.0 engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        (* enqueue completes, then crash enough sites that the next enqueue
           cannot reach its final quorum *)
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 1 ] ]);
        Relax_sim.Network.crash net 1;
        Relax_sim.Network.crash net 2;
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 9 ] ]);
        Relax_sim.Network.recover net 1;
        Relax_sim.Network.recover net 2;
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        let h = Log.to_history (Replica.global_log replica) in
        Alcotest.(check int) "only the completed enqueue" 1 (History.length h));
    Alcotest.test_case "gossip spreads entries everywhere" `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:5 () in
        let net = Relax_sim.Network.create engine ~sites:4 in
        let replica =
          Replica.create engine net
            (Assignment.make ~n:4
               [
                 (Queue_ops.enq_name, { Assignment.initial = 0; final = 1 });
                 (Queue_ops.deq_name, { Assignment.initial = 1; final = 1 });
               ])
            ~respond:Choosers.pq_eta
        in
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 2 ] ]);
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        for s = 0 to 3 do
          Alcotest.(check int)
            (Fmt.str "site %d has the entry" s)
            1
            (Log.length (Replica.site_log replica s))
        done);
    Alcotest.test_case "account chooser bounces on an insufficient view"
      `Quick (fun () ->
        let view = [ Account.credit 5 ] in
        match Choosers.account view (Op.inv Account.debit_name ~args:[ Value.int 10 ]) with
        | Some op ->
          Alcotest.(check bool) "bounced" true (Account.is_debit_bounced op)
        | None -> Alcotest.fail "expected a response");
    Alcotest.test_case "checkpointing shrinks stable logs without changing \
                        behavior" `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:6 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        (* some traffic, then quiesce with gossip until logs agree *)
        ignore
          (run_ops replica engine
             [
               Op.inv Queue_ops.enq_name ~args:[ Value.int 5 ];
               Op.inv Queue_ops.enq_name ~args:[ Value.int 2 ];
               Op.inv Queue_ops.deq_name;
               Op.inv Queue_ops.enq_name ~args:[ Value.int 4 ];
             ]);
        for _ = 1 to 3 do
          Replica.gossip replica;
          Relax_sim.Engine.run
            ~until:(Relax_sim.Engine.now engine +. 1_000.0)
            engine
        done;
        let before = Log.length (Replica.site_log replica 0) in
        let watermark = Log.max_ts (Replica.global_log replica) in
        (match
           Replica.checkpoint replica ~watermark
             ~summarize:Choosers.pq_summarize
         with
        | None -> Alcotest.fail "prefix should be stable after gossip"
        | Some reclaimed ->
          Alcotest.(check bool)
            (Fmt.str "reclaimed %d of %d" reclaimed before)
            true (reclaimed > 0));
        let after = Log.length (Replica.site_log replica 0) in
        Alcotest.(check bool) "log shrank" true (after < before);
        (* behavior is unchanged: the next Deq still returns the best
           pending item (4, since 5 was dequeued) *)
        match
          run_ops replica engine [ Op.inv Queue_ops.deq_name ]
        with
        | [ Some (Replica.Completed (op, _)) ] ->
          Alcotest.(check (option int))
            "best pending" (Some 4)
            (Option.bind (Queue_ops.element op) Value.to_int)
        | _ -> Alcotest.fail "deq should complete");
    Alcotest.test_case "gossip respects partitions and reconverges after \
                        heal without duplicates" `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:7 () in
        let net = Relax_sim.Network.create engine ~sites:4 in
        let replica =
          Replica.create engine net
            (Assignment.make ~n:4
               [
                 (Queue_ops.enq_name, { Assignment.initial = 0; final = 1 });
                 (Queue_ops.deq_name, { Assignment.initial = 1; final = 1 });
               ])
            ~respond:Choosers.pq_eta
        in
        Relax_sim.Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 7 ] ]);
        for _ = 1 to 2 do
          Replica.gossip replica;
          Relax_sim.Engine.run
            ~until:(Relax_sim.Engine.now engine +. 1_000.0)
            engine
        done;
        List.iter
          (fun s ->
            Alcotest.(check int)
              (Fmt.str "site %d (writer's cell) has the entry" s)
              1
              (Log.length (Replica.site_log replica s)))
          [ 0; 1 ];
        List.iter
          (fun s ->
            Alcotest.(check int)
              (Fmt.str "site %d (other cell) saw nothing" s)
              0
              (Log.length (Replica.site_log replica s)))
          [ 2; 3 ];
        Relax_sim.Network.heal net;
        for _ = 1 to 2 do
          Replica.gossip replica;
          Relax_sim.Engine.run
            ~until:(Relax_sim.Engine.now engine +. 1_000.0)
            engine
        done;
        for s = 0 to 3 do
          Alcotest.(check int)
            (Fmt.str "site %d converged on exactly one copy" s)
            1
            (Log.length (Replica.site_log replica s))
        done);
    Alcotest.test_case "checkpoint refuses while a tentative entry is in \
                        flight" `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:8 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create ~timeout:50_000.0 ~retries:0 engine net
            (pq_assignment ~n:3) ~respond:Choosers.pq_eta
        in
        (* settled traffic first (an enqueue-dequeue pair summarization
           can collapse), spread everywhere, so the watermark prefix is
           nonempty and otherwise checkpointable *)
        ignore
          (run_ops replica engine
             [
               Op.inv Queue_ops.enq_name ~args:[ Value.int 1 ];
               Op.inv Queue_ops.deq_name;
             ]);
        for _ = 1 to 2 do
          Replica.gossip replica;
          Relax_sim.Engine.run
            ~until:(Relax_sim.Engine.now engine +. 1_000.0)
            engine
        done;
        (* slow only the ack path: messages *sent* by sites 1 and 2 are
           skewed late, so the next enqueue's writes land everywhere
           quickly while its final quorum of acks stays in flight — the
           prefix then looks stable at every site, and only the
           tentative-entry guard can refuse the checkpoint *)
        Relax_sim.Network.set_skew net 1 10_000.0;
        Relax_sim.Network.set_skew net 2 10_000.0;
        let result = ref None in
        Replica.execute replica ~client_site:0
          (Op.inv Queue_ops.enq_name ~args:[ Value.int 9 ])
          (fun r -> result := Some r);
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 2_000.0)
          engine;
        (* the write is pushed only to a final quorum; one unskewed
           gossip round from site 0 spreads the tentative entry to the
           remaining site while the acks are still in flight *)
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 2_000.0)
          engine;
        Alcotest.(check bool) "operation still in flight" true (!result = None);
        for s = 0 to 2 do
          Alcotest.(check int)
            (Fmt.str "site %d already recorded the tentative entry" s)
            3
            (Log.length (Replica.site_log replica s))
        done;
        let watermark = Log.max_ts (Replica.global_log replica) in
        (match
           Replica.checkpoint replica ~watermark
             ~summarize:Choosers.pq_summarize
         with
        | None -> ()
        | Some _ ->
          Alcotest.fail
            "checkpoint must refuse: the prefix holds a tentative entry");
        (* let the acks land and the operation commit; the same watermark
           is now safe *)
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 60_000.0)
          engine;
        Alcotest.(check bool)
          "operation completed" true
          (match !result with Some (Replica.Completed _) -> true | _ -> false);
        match
          Replica.checkpoint replica ~watermark
            ~summarize:Choosers.pq_summarize
        with
        | Some reclaimed ->
          Alcotest.(check bool) "reclaimed something" true (reclaimed > 0)
        | None ->
          Alcotest.fail "checkpoint should succeed once the entry settles");
  ]

(* ------------------------------------------------------------------ *)
(* Durability: crash and recovery through the write-ahead journal       *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  [
    Alcotest.test_case "crash + recover round-trips through the journal"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:11 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        Replica.enable_journals replica;
        Alcotest.(check bool) "journaled" true (Replica.journaled replica 1);
        let results =
          run_ops replica engine
            [
              Op.inv Queue_ops.enq_name ~args:[ Value.int 1 ];
              Op.inv Queue_ops.enq_name ~args:[ Value.int 3 ];
            ]
        in
        Alcotest.(check int)
          "both enqueues completed" 2
          (List.length
             (List.filter
                (function Some (Replica.Completed _) -> true | _ -> false)
                results));
        (* let background propagation put both entries everywhere *)
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        let before = Log.length (Replica.site_log replica 1) in
        Alcotest.(check int) "site 1 holds both entries" 2 before;
        Replica.crash_site replica 1;
        Alcotest.(check int)
          "power loss empties the volatile log" 0
          (Log.length (Replica.site_log replica 1));
        Replica.recover_site replica 1;
        Alcotest.(check int)
          "journal replay restores the entries" before
          (Log.length (Replica.site_log replica 1));
        Alcotest.(check int) "one recovery counted" 1
          (Replica.recoveries replica);
        Alcotest.(check int)
          "site is recovering until re-joined" 1
          (Replica.recovering_count replica);
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Alcotest.(check int)
          "anti-entropy re-joins the site" 0
          (Replica.recovering_count replica);
        (* the recovered system still serves correct answers *)
        match run_ops replica engine [ Op.inv Queue_ops.deq_name ] with
        | [ Some (Replica.Completed (op, _)) ] ->
          Alcotest.(check (option int))
            "deq returns the best item" (Some 3)
            (Option.bind (Queue_ops.element op) Value.to_int)
        | _ -> Alcotest.fail "deq should complete");
    Alcotest.test_case "wipe destroys the journal, crash does not" `Quick
      (fun () ->
        let engine = Relax_sim.Engine.create ~seed:12 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        Replica.enable_journals replica;
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 2 ] ]);
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        Alcotest.(check bool)
          "entry landed at site 2" true
          (Log.length (Replica.site_log replica 2) > 0);
        (* amnesia: stable storage itself is lost *)
        Replica.wipe_site replica 2;
        Replica.recover_site replica 2;
        Alcotest.(check int)
          "nothing to replay after a wipe" 0
          (Log.length (Replica.site_log replica 2));
        (* power loss at another site keeps its synced journal *)
        Replica.crash_site replica 0;
        Replica.recover_site replica 0;
        Alcotest.(check bool)
          "crash keeps the synced prefix" true
          (Log.length (Replica.site_log replica 0) > 0));
    Alcotest.test_case "crash and recover are no-ops without journals"
      `Quick (fun () ->
        let engine = Relax_sim.Engine.create ~seed:13 () in
        let net = Relax_sim.Network.create engine ~sites:3 in
        let replica =
          Replica.create engine net (pq_assignment ~n:3)
            ~respond:Choosers.pq_eta
        in
        ignore
          (run_ops replica engine
             [ Op.inv Queue_ops.enq_name ~args:[ Value.int 5 ] ]);
        Replica.gossip replica;
        Relax_sim.Engine.run
          ~until:(Relax_sim.Engine.now engine +. 1_000.0)
          engine;
        let before = Log.length (Replica.site_log replica 0) in
        Replica.crash_site replica 0;
        Replica.recover_site replica 0;
        Alcotest.(check int)
          "legacy crash model: logs assumed stable" before
          (Log.length (Replica.site_log replica 0));
        Alcotest.(check int) "no recovery counted" 0
          (Replica.recoveries replica));
  ]

let () =
  Alcotest.run "replica"
    [
      ("timestamp", timestamp_tests);
      ("log", log_tests);
      ("views", view_tests);
      ("serial-dependency", serial_tests);
      ("assignment", assignment_tests);
      ("replica", replica_tests);
      ("journal", journal_tests);
    ]
