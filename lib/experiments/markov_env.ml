open Relax_objects
open Relax_prob

(* Experiment X-markov: the clean interface between the functional and
   probabilistic models that Section 2.3 advertises.

   Each site is an up/down Markov chain (crash with probability c per
   round, recover with probability r).  From the chain alone we derive
   the stationary per-site availability p = r / (c + r); from p and the
   voting thresholds the exact probability that each lattice point's
   constraints can be met (binomial tails); and from those, the expected
   long-run operation availability.  The same parameters then drive the
   discrete-event taxi workload — one chaos run per point, the chain
   stepping once per operation window — whose *measured* availability
   must agree with the closed form: the two models compose without
   either knowing the other's internals. *)

type row = {
  label : string;
  predicted_deq_availability : float;
  measured_availability : float;
}

let pp_row ppf r =
  Fmt.pf ppf "%-34s predicted %6.3f  measured %6.3f" r.label
    r.predicted_deq_availability r.measured_availability

(* The site chain and its stationary up-probability. *)
let site_chain ~crash ~recover =
  Markov.create ~labels:[| "up"; "down" |]
    ~p:
      (Matrix.of_rows
         [ [ 1.0 -. crash; crash ]; [ recover; 1.0 -. recover ] ])

let stationary_up ~crash ~recover =
  (Markov.stationary (site_chain ~crash ~recover)).(0)

(* Expected availability of an operation at a lattice point, from the
   stationary distribution alone. *)
let predicted point ~crash ~recover op =
  let p = stationary_up ~crash ~recover in
  Availability.op_availability point.Taxi.assignment ~p op

(* Measured availability from the taxi workload driven by the same
   chain: completed operations over operations that had something to do
   (empty-view Deqs are excluded — they failed for lack of work, not lack
   of quorum). *)
let measured point ~crash ~recover ~requests ~seed =
  let config = { Relax_chaos.Runner.default_config with requests; seed } in
  let o = Taxi.run_point ~config ~crash_p:crash ~recover_p:recover point in
  let r = o.Taxi.result in
  let with_work = r.completed + r.unavailable in
  (float_of_int r.completed /. float_of_int (max 1 with_work), o)

let run_body ~crash ~recover ~requests ~seed ppf =
  let chain = site_chain ~crash ~recover in
  let hitting = Markov.expected_hitting_time chain ~target:0 in
  Fmt.pf ppf "expected rounds to recover a down site: %.2f@\n" hitting.(1);
  let rows =
    List.map
      (fun point ->
        let m, o = measured point ~crash ~recover ~requests ~seed in
        (* the workload mixes enqueues and dequeues; weight the two
           closed-form availabilities by the actual mix *)
        let enq_ops = float_of_int o.Taxi.requests in
        let deq_ops = float_of_int (o.Taxi.attempted - o.Taxi.requests) in
        let mix =
          ((enq_ops *. predicted point ~crash ~recover Queue_ops.enq_name)
          +. (deq_ops *. predicted point ~crash ~recover Queue_ops.deq_name))
          /. (enq_ops +. deq_ops)
        in
        {
          label = point.Taxi.label;
          predicted_deq_availability = mix;
          measured_availability = m;
        })
      (Taxi.points ~n:5)
  in
  List.iter (fun r -> Fmt.pf ppf "%a@\n" pp_row r) rows;
  (* agreement within sampling tolerance, and monotone down the lattice *)
  let tolerant =
    List.for_all
      (fun r ->
        Float.abs (r.predicted_deq_availability -. r.measured_availability)
        < 0.15)
      rows
  in
  let availabilities = List.map (fun r -> r.predicted_deq_availability) rows in
  let monotone =
    match availabilities with
    | top :: rest -> List.for_all (fun a -> a >= top -. 1e-9) rest
    | [] -> false
  in
  Fmt.pf ppf "functional and probabilistic models agree (±0.15): %b@\n"
    tolerant;
  Fmt.pf ppf "availability never decreases down the lattice: %b@\n" monotone;
  tolerant && monotone

let claims ?(crash = 0.3) ?(recover = 0.3) ?(requests = 200) ?(seed = 13) () =
  [
    Relax_claims.Claim.report ~id:"markov/compose" ~kind:Numeric
      ~paper:"Section 2.3"
      ~description:
        "stationary site availability composes with the taxi workload"
      ~detail:
        (Fmt.str "crash %.2f / recover %.2f, %d requests, seed %d" crash
           recover requests seed)
      (run_body ~crash ~recover ~requests ~seed);
  ]

let group ?(crash = 0.3) ?(recover = 0.3) ?requests ?seed () =
  {
    Relax_claims.Registry.gid = "markov";
    title = "Section 2.3 Markov environment composed with the workload";
    header =
      Fmt.str
        "== Markov environment: crash %.2f / recover %.2f => stationary p(up) \
         = %.3f ==\n"
        crash recover
        (stationary_up ~crash ~recover);
    claims = claims ~crash ~recover ?requests ?seed ();
  }

let run ?crash ?recover ?requests ?seed ppf () =
  Relax_claims.Engine.run_print (group ?crash ?recover ?requests ?seed ()) ppf
