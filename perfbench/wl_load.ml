(* Workload `load`: Relax_experiments.Load.run_point on one shard and one
   domain at top ({Q1,Q2}) and at bottom ({}) — an open loop of Poisson
   arrivals at 1/ms in virtual time, 50% reads (Deq) beside 50% writes
   (Enq), 2% loss and the crash window.  Arrivals are virtual, so there
   is no generator lateness and wall time measures the simulator:
   millions of short independent operations keep engine dispatch,
   network fan-out and histogram updates hot, with no log growth and no
   oracle.  The workload seed seeds the generator. *)

open Measure
module Load = Relax_experiments.Load

let ops cfg = if cfg.smoke then 5_000 else 200_000

(* The ambient tracer would hold some fifteen events per operation in
   memory, so the traced unit records the benchmark's spans only; the
   engine's own counter gives the event counts. *)
let workload =
  {
    name = "load";
    setup =
      (fun cfg ->
        let points, _ =
          Spans.time ~layer:"experiments" "Taxi.points" (fun () ->
              match Relax_experiments.Taxi.points ~n:5 with
              | [ top; _; _; bottom ] -> [ ("top", top); ("bottom", bottom) ]
              | _ -> failwith "load: expected four lattice points")
        in
        let params n = { Load.default_params with ops = n; shards = 1; seed = cfg.seed } in
        (* stand the service up once per point before timing: shard,
           network and histogram creation plus a 1% warm-up *)
        List.iter
          (fun (name, pt) ->
            ignore
              (Spans.time ~layer:"experiments" ("Load.run_point warm-up " ^ name) (fun () ->
                   Load.run_point ~jobs:1 ~params:(params (ops cfg / 100)) pt)))
          points;
        let run ~traced =
          let minor0 = Gc.minor_words () in
          let outcomes, wall =
            Spans.time ~layer:"perfbench" "load_s" (fun () ->
                List.map
                  (fun (name, pt) ->
                    let o, dt =
                      Spans.time ~layer:"experiments" ("Load.run_point " ^ name) (fun () ->
                          Load.run_point ~jobs:1 ~params:(params (ops cfg)) pt)
                    in
                    (name, o, dt))
                  points)
          in
          let minor = Gc.minor_words () -. minor0 in
          let total_ops = List.fold_left (fun n (_, (o : Load.outcome), _) -> n + o.ops) 0 outcomes in
          let point_problems =
            List.concat_map
              (fun (name, (o : Load.outcome), _) ->
                (if o.completed + o.unavailable = o.ops && o.ops = ops cfg then []
                 else [ (o.ops, Printf.sprintf "%s: completed + unavailable <> ops" name) ])
                @
                if o.p50 <= o.p99 && o.p99 <= o.p999 then []
                else [ (o.ops, Printf.sprintf "%s: p50 <= p99 <= p999 fails" name) ])
              outcomes
          in
          let avail name =
            List.find_map
              (fun (n, (o : Load.outcome), _) -> if n = name then Some o.availability else None)
              outcomes
          in
          let order_problems =
            if avail "bottom" >= avail "top" then []
            else [ (total_ops, "availability at bottom is below top") ]
          in
          let problems = point_problems @ order_problems in
          let per_point f = List.map (fun (name, o, dt) -> f name o dt) outcomes in
          let l = "sim_ops_per_s" in
          {
            wall;
            phases = [ ("load_s", wall) ];
            named =
              [
                metric "sim_ops_per_s" "1/s" (fi total_ops /. wall);
                metric "unavailable_share" "ratio"
                  (fi (List.fold_left (fun n (_, (o : Load.outcome), _) -> n + o.unavailable) 0 outcomes)
                  /. fi total_ops);
              ];
            counters =
              per_point (fun name (o : Load.outcome) _ ->
                  ( "load.events." ^ name,
                    Printf.sprintf "%d (%d completed, %d unavailable)" o.events o.completed o.unavailable ))
              @ if traced then [] else [ ("gc.minor_words.load", Json.number minor) ];
            attempted = total_ops;
            failed = min total_ops (List.fold_left (fun n (k, _) -> n + k) 0 problems);
            problems = List.map snd problems;
            layers =
              (if not traced then []
               else
                 List.concat
                   (per_point (fun name (o : Load.outcome) dt ->
                        [
                          metric ~moves:l ("load.wall_s." ^ name) "s" dt;
                          metric ~moves:l ("load.events." ^ name) "count" (fi o.events);
                          metric ~moves:l ("load.events_per_op." ^ name) "events/op"
                            (fi o.events /. fi o.ops);
                          metric ~moves:l ("load.ns_per_event." ^ name) "ns"
                            (dt *. 1e9 /. fi o.events);
                        ]))
                 @ [ metric ~moves:l "gc.minor_words_per_op.load" "words/op" (minor /. fi total_ops) ]);
          }
        in
        { run; gate = (fun () -> no_gate) });
  }
