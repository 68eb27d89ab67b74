(* Unit costs, timed on fixed inputs (bench/main.ml's bag term, its
   5-op history and qca_q1).  Every traced run times all of them, so a
   change to one layer shows beside the workload it should move and
   beside the ones it should not. *)

open Measure
open Relax_objects
module Journal = Relax_journal.Journal
module Jdevice = Relax_journal.Device
module Adaptive = Relax_experiments.Adaptive

(* Median over batches of the per-call cost, in seconds. *)
let per_call ~budget ~batch f =
  let t_end = Unix.gettimeofday () +. budget in
  let rec go acc =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = (Unix.gettimeofday () -. t0) /. fi batch in
    if Unix.gettimeofday () < t_end || List.length acc < 4 then go (dt :: acc) else dt :: acc
  in
  median (go [])

let fixed_history =
  [
    Queue_ops.enq_int 1; Queue_ops.enq_int 2; Queue_ops.deq_int 2;
    Queue_ops.enq_int 1; Queue_ops.deq_int 1;
  ]

let payload = String.make 128 'j'

let metrics cfg =
  let budget = if cfg.smoke then 0.01 else 0.15 in
  let bag = Relax_larch.Theories.mbag () in
  let bag_term =
    Relax_larch.Parser.expr_of_string "del(ins(ins(ins(ins(emp, 4), 2), 7), 2), 2)"
  in
  let qca_q1 =
    Relax_quorum.Qca.automaton Relax_quorum.Instances.pq_spec_eta Relax_quorum.Instances.q1
  in
  let attach_dev =
    let dev = Jdevice.memory () in
    let j, _, _ = Journal.attach ~segment_size:8192 dev ~name:"wal" in
    for _ = 1 to 1_000 do
      Journal.append j payload
    done;
    Journal.sync j;
    dev
  in
  let monitors =
    let engine = Relax_sim.Engine.create ~seed:9 () in
    let net = Relax_sim.Network.create engine ~sites:5 in
    let preferred = Adaptive.preferred_assignment ~n:5 in
    let replica =
      Relax_replica.Replica.create engine net preferred ~respond:Relax_replica.Choosers.pq_eta
    in
    Relax_degrade.Monitor.
      [
        quorum_reachability ~name:"quorums" ~net ~assignment:preferred ();
        convergence ~name:"converged" ~replica ();
        retry_pressure ~name:"retry-pressure" ~replica ();
      ]
  in
  let rq = Relax_relax.Rqueue.create ~width:16 () in
  List.iter (Relax_relax.Rqueue.enqueue rq ~hint:0) [ 1; 2 ];
  let time name unit_ scale moves ~batch f =
    let v, _ = Spans.time ~layer:"probe" name (fun () -> per_call ~budget ~batch f) in
    metric ~moves name unit_ (v *. scale)
  in
  let ns = 1e9 and us = 1e6 in
  [
    time "larch.normalize_ns" "ns" ns "verify_s" ~batch:100 (fun () ->
        ignore (Relax_larch.Trait.normalize bag bag_term));
    time "core.accept_ns" "ns" ns "verify_s" ~batch:1_000 (fun () ->
        ignore (Relax_core.Automaton.accepts Pqueue.automaton fixed_history));
    time "quorum.qca_accept_ns" "ns" ns "verify_s" ~batch:100 (fun () ->
        ignore (Relax_core.Automaton.accepts qca_q1 fixed_history));
    (* a commit is one append and one sync; a fresh journal per batch *)
    time "journal.append_sync_us" "us" (us /. 100.0) "history_s" ~batch:1 (fun () ->
        let j, _, _ = Journal.attach (Jdevice.memory ()) ~name:"wal" in
        for _ = 1 to 100 do
          Journal.append j payload;
          Journal.sync j
        done);
    time "journal.attach_ms" "ms" 1e3 "history_s" ~batch:1 (fun () ->
        ignore (Journal.attach ~segment_size:8192 attach_dev ~name:"wal"));
    time "degrade.sample_us" "us" us "history_s" ~batch:100 (fun () ->
        List.iter (fun m -> ignore (Relax_degrade.Monitor.sample m)) monitors);
    (* recycled-event steady state: waves reuse the freelist *)
    time "sim.dispatch_ns" "ns" (ns /. 10_000.0) "sim_ops_per_s, search_s" ~batch:1 (fun () ->
        let e = Relax_sim.Engine.create () in
        for wave = 0 to 9 do
          for i = 1 to 1_000 do
            Relax_sim.Engine.schedule e ~delay:(fi ((wave * 1_000) + i)) ignore
          done;
          Relax_sim.Engine.run e
        done);
    (* one 4-target batch: one latency draw, one engine event *)
    time "net.fanout_ns" "ns" (ns /. 1_000.0) "sim_ops_per_s, search_s" ~batch:1 (fun () ->
        let e = Relax_sim.Engine.create () in
        let net = Relax_sim.Network.create e ~sites:5 in
        for _ = 1 to 1_000 do
          Relax_sim.Network.send_batch net ~src:0 (Array.init 4 (fun i -> (i + 1, ignore)))
        done;
        Relax_sim.Engine.run e);
    time "relax.pair_ns" "ns" ns "queue_mops" ~batch:10_000 (fun () ->
        Relax_relax.Rqueue.enqueue rq ~hint:0 3;
        ignore (Relax_relax.Rqueue.dequeue rq ~hint:0));
  ]
