module Relax = Relax_relax

(* Experiment X-relax: live multicore relaxed queues against the
   Section 4 lattice.

   The degradation experiments (X-degrade) exercise the lattice under
   simulated faults; X-relax closes the loop on real hardware: actual
   domains race on actual lock-free structures, and the recorded
   concurrent histories are decided against the same relaxed automata
   the rest of the repository reasons about.  The claims are chosen to
   be schedule-independent — acceptance of a correct structure and
   rejection of the planted over-relaxed variant hold for every
   interleaving, and the elastic trajectory is driven by occupancy,
   which under the phased workload is a function of the seeded op mix
   alone. *)

type sweep = {
  seeds : int list;
  accepted : int;
  rejections : (int * string) list;
}

let conformance_sweep (params : Relax.Harness.params) seeds =
  let outcomes =
    List.map
      (fun seed -> (seed, Relax.Harness.run { params with seed }))
      seeds
  in
  let rejections =
    List.filter_map
      (fun (seed, (o : Relax.Harness.outcome)) ->
        if Relax.Conformance.conforms o.verdict then None
        else Some (seed, Fmt.str "%a" Relax.Conformance.pp_verdict o.verdict))
      outcomes
  in
  {
    seeds;
    accepted = List.length seeds - List.length rejections;
    rejections;
  }

let planted_exhibit ~width =
  let recorder = Relax.Record.create ~domains:1 () in
  let q = Relax.Rqueue.create ~planted_overtake:true ~width () in
  for v = 1 to width + 1 do
    Relax.Record.record recorder ~domain:0 (fun () ->
        Relax.Rqueue.enqueue q ~hint:0 v;
        Relax_objects.Queue_ops.enq_int v)
  done;
  Relax.Record.record recorder ~domain:0 (fun () ->
      match Relax.Rqueue.dequeue q ~hint:0 with
      | Some v -> Relax_objects.Queue_ops.deq_int v
      | None -> Relax.Conformance.deq_empty);
  let events = Relax.Record.completed recorder in
  let at_claimed =
    Relax.Conformance.check (Relax.Conformance.semiqueue ~k:width) events
  in
  let at_doubled =
    Relax.Conformance.check (Relax.Conformance.semiqueue ~k:(2 * width)) events
  in
  (events, at_claimed, at_doubled)

(* ------------------------------------------------------------------ *)
(* Throughput                                                          *)
(* ------------------------------------------------------------------ *)

let default_impls =
  [ Relax.Harness.Relaxed; Relax.Harness.Locked; Relax.Harness.Stuttering ]

let bench_rows ?(impls = default_impls) ?(domain_counts = [ 1; 2; 4; 8 ])
    ~ops_per_domain ~k ~j ~seed () =
  List.concat_map
    (fun impl ->
      List.map
        (fun domains ->
          (impl, domains, Relax.Harness.bench impl ~domains ~ops_per_domain ~k ~j ~seed))
        domain_counts)
    impls

let pp_bench ppf rows =
  Fmt.pf ppf "%-12s %8s %12s@\n" "impl" "domains" "Mops/s";
  List.iter
    (fun (impl, domains, mops) ->
      Fmt.pf ppf "%-12s %8d %12.2f@\n"
        (Relax.Harness.impl_name impl)
        domains mops)
    rows

let bench_to_json rows =
  let row (impl, domains, mops) =
    Fmt.str "{\"impl\": %s, \"domains\": %d, \"mops\": %.3f}"
      Relax_obs.Attr.(value_to_json (Str (Relax.Harness.impl_name impl)))
      domains mops
  in
  Fmt.str "{\"rows\": [%s]}" (String.concat ", " (List.map row rows))

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)
(* ------------------------------------------------------------------ *)

let claim_params =
  { Relax.Harness.default_params with ops_per_domain = 120; prefill = 8 }

let claim_seeds = List.init 20 Fun.id

(* Sweeps tally only accept/reject: acceptance is schedule-independent,
   so the rendering is byte-stable across runs; rejection details print
   only on failure, where determinism no longer matters. *)
let render_sweep ppf label (params : Relax.Harness.params) sweep =
  Fmt.pf ppf "%s: %d domains x %d ops, %d seeded runs: %d accepted@\n" label
    params.domains params.ops_per_domain (List.length sweep.seeds)
    sweep.accepted;
  List.iter
    (fun (seed, verdict) -> Fmt.pf ppf "  seed %d REJECTED: %s@\n" seed verdict)
    sweep.rejections;
  sweep.rejections = []

let claims () =
  [
    Relax_claims.Claim.report ~id:"relax/conformance"
      ~kind:Characterization ~paper:"Figure 4-1 (Semiqueue_k, live)"
      ~description:
        "recorded multi-domain histories of the segment-window k-relaxed \
         queue conform to Semiqueue_k"
      ~detail:
        (Fmt.str "%d seeded runs, %d domains, k=%d" (List.length claim_seeds)
           claim_params.domains claim_params.k)
      (fun ppf ->
        let sweep = conformance_sweep claim_params claim_seeds in
        render_sweep ppf "relaxed" claim_params sweep)
    ;
    Relax_claims.Claim.report ~id:"relax/overtake-rejected"
      ~kind:Characterization ~paper:"Figure 4-1 (Semiqueue_k, negative)"
      ~description:
        "the planted over-relaxed variant is rejected at its claimed bound \
         with a concrete counterexample history, and accepted once the bound \
         covers both segments"
      ~detail:"sequential exhibit, width 2"
      (fun ppf ->
        let events, at_claimed, at_doubled = planted_exhibit ~width:2 in
        List.iter
          (fun c -> Fmt.pf ppf "%a@\n" Relax.Record.pp_completed c)
          events;
        Fmt.pf ppf "at k=2: %a@\n" Relax.Conformance.pp_verdict at_claimed;
        Fmt.pf ppf "at k=4: %a@\n" Relax.Conformance.pp_verdict at_doubled;
        (not (Relax.Conformance.conforms at_claimed))
        && Relax.Conformance.conforms at_doubled)
    ;
    Relax_claims.Claim.report ~id:"relax/stuttering"
      ~kind:Characterization ~paper:"Figure 4-3 (Stuttering_j, live)"
      ~description:
        "recorded histories of the bounded-stutter queue conform to \
         Stuttering_j: under contention the front element repeats, never \
         more than j times"
      ~detail:
        (Fmt.str "8 seeded runs, %d domains, j=%d" claim_params.domains
           claim_params.j)
      (fun ppf ->
        let params = { claim_params with impl = Relax.Harness.Stuttering } in
        let sweep = conformance_sweep params (List.init 8 Fun.id) in
        render_sweep ppf "stuttering" params sweep)
    ;
    Relax_claims.Claim.report ~id:"relax/locked-fifo"
      ~kind:Characterization ~paper:"Section 4 (Semiqueue_1 = FIFO)"
      ~description:
        "the locked baseline's histories conform to Semiqueue_1: the bottom \
         of the relaxation chain is the unrelaxed queue"
      ~detail:(Fmt.str "8 seeded runs, %d domains" claim_params.domains)
      (fun ppf ->
        let params = { claim_params with impl = Relax.Harness.Locked } in
        let sweep = conformance_sweep params (List.init 8 Fun.id) in
        render_sweep ppf "locked" params sweep)
    ;
    Relax_claims.Claim.report ~id:"relax/elastic"
      ~kind:Characterization ~paper:"Section 2.3 + Figure 4-1 (elastic)"
      ~description:
        "the elastic controller widens k under backlog and narrows when \
         calm, and the whole trajectory — including every visited bound — \
         is accepted by the combined automaton"
      ~detail:"phased build/drain workload, occupancy-driven controller"
      (fun ppf ->
        let outcome =
          Relax.Harness.run_elastic Relax.Harness.default_elastic_params
        in
        Fmt.pf ppf "k trajectory: %a@\n"
          Fmt.(list ~sep:(any " -> ") int)
          outcome.evisited;
        List.iter
          (fun (tr : Relax.Controller.transition) ->
            Fmt.pf ppf "  round %.0f: %s to k=%d@\n" tr.at
              (if tr.widened then "widen" else "narrow")
              tr.k)
          outcome.etransitions;
        Fmt.pf ppf "recorded SetK shift events: %d@\n" outcome.set_k_events;
        Fmt.pf ppf "conformance: %s@\n"
          (if Relax.Conformance.conforms outcome.everdict then "accepted"
           else Fmt.str "%a" Relax.Conformance.pp_verdict outcome.everdict);
        List.exists (fun (tr : Relax.Controller.transition) -> tr.widened)
          outcome.etransitions
        && List.exists
             (fun (tr : Relax.Controller.transition) -> not tr.widened)
             outcome.etransitions
        && outcome.set_k_events >= 1
        && Relax.Conformance.conforms outcome.everdict);
  ]

let group () =
  {
    Relax_claims.Registry.gid = "relax";
    title = "X-relax: live multicore relaxed queues";
    header = "== X-relax: domains vs the lattice, conformance-checked ==\n";
    claims = claims ();
  }
