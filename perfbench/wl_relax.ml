(* Workload `relax`: unrecorded live throughput of the k-relaxed queue
   (k = 16) and of the locked baseline (Harness.bench) on two domains.
   The two configurations alternate within every unit, and which one
   goes first alternates between units, so a burst of scheduler noise
   hits one sample of each instead of every sample of one.  The only
   workload that uses lib/relax.

   The conformance gate is a pinned set of recorded Harness.run seeds,
   40 operations per domain.  Its cost depends on the interleaving, so it
   runs after the timed units and is not timed; at the CI's 120
   operations per domain one stuttering check took 20.5 s (an overlap
   window of 2 with 104,976 configurations), while 400 contended runs at
   40 stayed under 0.05 s each. *)

open Measure
module H = Relax_relax.Harness
module Rqueue = Relax_relax.Rqueue
module Rng = Relax_sim.Rng

let k = 16
let domains = 2
let ops_per_domain cfg = if cfg.smoke then 5_000 else 200_000
let pinned cfg = List.init (if cfg.smoke then 2 else 6) Fun.id

let bench cfg impl =
  H.bench impl ~domains ~ops_per_domain:(ops_per_domain cfg) ~k ~j:3 ~seed:cfg.seed

(* Harness.bench's workload on a queue the benchmark holds, so the
   queue's contention counters can be read afterwards. *)
let contended_stats cfg =
  let ops = ops_per_domain cfg in
  let q = Rqueue.create ~width:k () in
  for v = 1 to k * domains do
    Rqueue.enqueue q ~hint:0 v
  done;
  let rngs = Rng.split_n (Rng.create ~seed:cfg.seed) domains in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = rngs.(d) and base = (d + 1) * ops in
            for i = 1 to ops do
              if Rng.unit_float rng < 0.5 then Rqueue.enqueue q ~hint:d (base + i)
              else ignore (Rqueue.dequeue q ~hint:d)
            done))
  in
  Array.iter Domain.join workers;
  (Rqueue.stats q, domains * ops)

let workload =
  {
    name = "relax";
    setup =
      (fun cfg ->
        (* queue creation with domain spawn: both structures, prefilled
           the way Harness.bench prefills them, and one spawn/join round *)
        ignore
          (Spans.time ~layer:"relax" "Rqueue.create+Lockq.create" (fun () ->
               let q = Rqueue.create ~width:k () and l = Relax_relax.Lockq.create () in
               for v = 1 to k * domains do
                 Rqueue.enqueue q ~hint:0 v;
                 Relax_relax.Lockq.enqueue l v
               done));
        ignore
          (Spans.time ~layer:"relax" "Domain.spawn+join" (fun () ->
               Array.iter Domain.join (Array.init domains (fun _ -> Domain.spawn ignore))));
        let units = ref 0 in
        let run ~traced =
          let order = if !units mod 2 = 0 then [ H.Relaxed; H.Locked ] else [ H.Locked; H.Relaxed ] in
          incr units;
          let results =
            List.map
              (fun impl ->
                let phase = if impl = H.Relaxed then "queue_s" else "locked_s" in
                let mops, dt =
                  Spans.time ~layer:"perfbench" phase (fun () ->
                      fst
                        (Spans.time ~layer:"relax" ("Harness.bench " ^ H.impl_name impl) (fun () ->
                             bench cfg impl)))
                in
                (impl, mops, dt))
              order
          in
          let get impl = List.find (fun (i, _, _) -> i = impl) results in
          let _, queue_mops, queue_s = get H.Relaxed and _, locked_mops, locked_s = get H.Locked in
          let layers =
            if not traced then []
            else begin
              let q = "queue_mops" in
              let uncontended, _ =
                Spans.time ~layer:"relax" "Harness.bench relaxed 1-domain" (fun () ->
                    H.bench H.Relaxed ~domains:1 ~ops_per_domain:(ops_per_domain cfg) ~k ~j:3
                      ~seed:cfg.seed)
              in
              let (st, n), _ =
                Spans.time ~layer:"relax" "Rqueue 2-domain stats run" (fun () -> contended_stats cfg)
              in
              let per_kop c = fi c *. 1000.0 /. fi n in
              [
                metric ~moves:q "relax.uncontended_mops" "Mops/s" uncontended;
                metric ~moves:q "relax.cas_failures_per_kop" "1/kop" (per_kop st.Rqueue.cas_failures);
                metric ~moves:q "relax.empty_polls_per_kop" "1/kop" (per_kop st.Rqueue.empty_polls);
                metric ~moves:q "relax.segments_per_kop" "1/kop" (per_kop st.Rqueue.segments);
              ]
            end
          in
          {
            wall = queue_s +. locked_s;
            phases = [ ("queue_s", queue_s); ("locked_s", locked_s) ];
            named = [ metric "queue_mops" "Mops/s" queue_mops; metric "locked_mops" "Mops/s" locked_mops ];
            counters = [];
            attempted = 0;
            failed = 0;
            problems = [];
            layers;
          }
        in
        let gate () =
          let runs =
            List.concat_map
              (fun impl ->
                List.map
                  (fun seed ->
                    let o = H.run { H.default_params with impl; seed; ops_per_domain = 40 } in
                    (impl, seed, Relax_relax.Conformance.conforms o.H.verdict))
                  (pinned cfg))
              [ H.Relaxed; H.Locked; H.Stuttering ]
          in
          let rejected = List.filter (fun (_, _, ok) -> not ok) runs in
          {
            g_attempted = List.length runs;
            g_failed = List.length rejected;
            g_problems =
              List.map
                (fun (impl, seed, _) ->
                  Printf.sprintf "%s seed %d: recorded history rejected" (H.impl_name impl) seed)
                rejected;
          }
        in
        { run; gate });
  }
