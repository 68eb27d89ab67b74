open Relax_core
open Relax_objects
open Relax_quorum

(* Experiment X-fifo: the replicated FIFO queue — the paper's Section 3.1
   motivating example (the three-site queue log), which the paper
   replicates but never characterizes.  We characterize its full
   relaxation lattice {QCA(FifoQ, Q, eta_fifo) | Q ⊆ {Q1, Q2}}:

     {Q1,Q2}  ->  FIFO queue            (one-copy serializable)
     {Q1}     ->  RFQ                   (FIFO order, served prefix may
                                         replay — the replication-side
                                         mirror of the stuttering queue)
     {Q2}     ->  Bag                   (each item served once, any
                                         order — mirror of the semiqueue
                                         family's limit)
     {}       ->  DegenPQ               (any enqueued item, repeatedly)

   so the two halves of the paper meet: the quorum relaxations of the
   replicated FIFO queue produce exactly the anomaly split (duplicates
   vs. reordering) that Section 4.2 obtains from concurrency
   relaxations.  Claims live under "fifo/". *)

type check = Pq_checks.check = { name : string; ok : bool; detail : string }

let q1_q2 = Relation.union Instances.q1 Instances.q2

let claims ?(alphabet = Queue_ops.alphabet (Queue_ops.universe 2)) ?(depth = 5)
    ?strategy () =
  let qca rel () = Qca.automaton_views ~alphabet Instances.fifo_spec_eta rel in
  (* The FIFO QCA points have by far the largest envelope-saturated state
     spaces in the catalog: at depth 8 on one domain of a 2-vCPU VM, a
     certified simulation costs 20–800 ms per point where bounded
     enumeration costs 15–50 ms, so under Auto they stay on the
     enumeration fallback. *)
  let point ~id name mk =
    Pq_checks.equivalence_claim ~id
      ?strategy:(Relax_proof.Strategy.heavy strategy)
      ~paper:"Section 3.1" name mk ~alphabet ~depth
  in
  let sd rel () =
    Serial.is_serial_dependency Fifo.automaton rel ~alphabet
      ~depth:(min depth 4)
  in
  [
    point ~id:"fifo/top" "L(QCA(FIFO,{Q1,Q2},eta_fifo)) = L(FifoQ)" (fun () ->
        (qca q1_q2 (), Fifo.automaton));
    point ~id:"fifo/rfq" "L(QCA(FIFO,{Q1},eta_fifo)) = L(RFQ) (our characterization)"
      (fun () -> (qca Instances.q1 (), Rfq.automaton));
    point ~id:"fifo/bag" "L(QCA(FIFO,{Q2},eta_fifo)) = L(Bag)" (fun () ->
        (qca Instances.q2 (), Bag.automaton));
    point ~id:"fifo/bottom" "L(QCA(FIFO,{},eta_fifo)) = L(DegenPQ)" (fun () ->
        (qca Relation.empty (), Degen.automaton));
    Pq_checks.bool_claim ~id:"fifo/sd-q1q2" ~kind:Serial_dependency
      ~paper:"Definition 3" "{Q1,Q2} is a serial dependency relation for FifoQ"
      (sd q1_q2);
    Pq_checks.bool_claim ~id:"fifo/sd-q1-insufficient" ~kind:Serial_dependency
      ~paper:"Definition 3"
      "{Q1} alone is NOT a serial dependency relation for FifoQ" (fun () ->
        not (sd Instances.q1 ()));
    Pq_checks.bool_claim ~id:"fifo/sd-q2-insufficient" ~kind:Serial_dependency
      ~paper:"Definition 3"
      "{Q2} alone is NOT a serial dependency relation for FifoQ" (fun () ->
        not (sd Instances.q2 ()));
    Pq_checks.bool_claim ~id:"fifo/monotone" ~kind:Monotone
      ~paper:"Section 3.1" "replicated-FIFO lattice is monotone" (fun () ->
        Relaxation.check_monotone
          (Instances.fifo_lattice ~alphabet ())
          ~alphabet ~depth:(min depth 4)
        = []);
  ]

let group ?alphabet ?depth ?strategy () =
  {
    Relax_claims.Registry.gid = "fifo";
    title = "Section 3.1 replicated FIFO queue, fully characterized";
    header = "== Section 3.1: the replicated FIFO queue, fully characterized ==\n";
    claims = claims ?alphabet ?depth ?strategy ();
  }

let run ?alphabet ?depth ?strategy ppf () =
  Relax_claims.Engine.run_print (group ?alphabet ?depth ?strategy ()) ppf
