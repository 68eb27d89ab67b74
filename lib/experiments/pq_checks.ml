open Relax_core
open Relax_objects
open Relax_quorum

(* Experiment L3-3 / T4 / C3-O / C3-D (see DESIGN.md): mechanized checks
   of every claim the paper makes about the replicated priority queue
   lattice of Section 3.3 — expressed as addressable claims (ids under
   "pq/") whose verdicts render exactly the lines the legacy
   print-driven checker produced.

   This module also hosts the check-record type and the claim
   constructors the other language-level check modules (collapses,
   fifo, account) share. *)

type check = { name : string; ok : bool; detail : string }

let pp_check ppf c =
  Fmt.pf ppf "[%s] %s%s"
    (if c.ok then "ok" else "FAIL")
    c.name
    (if c.detail = "" then "" else " — " ^ c.detail)

(* The enqueue-envelope weight of the proof pipeline: a certified
   simulation proves a queue-family claim for every history with at most
   [budget] enqueues, at any depth.  Only meaningful on the queue
   alphabets — the account lattice keeps the legacy checkers. *)
let queue_weight p = if Queue_ops.is_enq p then 1 else 0

let method_of_pipeline = function
  | Relax_proof.Pipeline.Proved_simulation { enqs; relation; obligations } ->
    Relax_claims.Verdict.Proved_simulation { enqs; relation; obligations }
  | Relax_proof.Pipeline.Bounded { depth } ->
    Relax_claims.Verdict.Bounded { depth }

(* The method column of the human reporter; claims that never route
   through the pipeline render exactly as before. *)
let method_suffix = function
  | None -> ""
  | Some (Relax_claims.Verdict.Proved_simulation { enqs; _ }) ->
    Fmt.str " [proved: sim, ≤%d enqs]" enqs
  | Some (Relax_claims.Verdict.Bounded _) -> " [bounded: enum]"

let verdict_of_check ?counterexample ?proof_method c =
  Relax_claims.Verdict.of_bool c.ok ~detail:c.detail ?counterexample
    ?proof_method
    ~human:(Fmt.str "%a%s@\n" pp_check c (method_suffix proof_method))

let check_claim ~id ~kind ~paper ~description mk =
  Relax_claims.Claim.make ~id ~kind ~paper ~description (fun () ->
      let c, counterexample = mk () in
      verdict_of_check ?counterexample c)

(* Like {!check_claim} for checks that report how they were proved. *)
let proof_claim ~id ~kind ~paper ~description mk =
  Relax_claims.Claim.make ~id ~kind ~paper ~description (fun () ->
      let c, counterexample, proof_method = mk () in
      verdict_of_check ?counterexample ?proof_method c)

let bool_claim ~id ~kind ~paper name f =
  check_claim ~id ~kind ~paper ~description:name (fun () ->
      ({ name; ok = f (); detail = "" }, None))

(* Bounded language equivalence as a (check, separating history, method)
   triple; the automata are built by the caller's thunk, inside the
   claim.  With a [strategy] the decision routes through the proof
   pipeline — simulation synthesis first, enumeration fallback — and
   without one it is exactly the legacy [Language.equivalent]. *)
let equivalence ?strategy ?audit ?audit_rev name a b ~alphabet ~depth =
  let decided, proof_method =
    match strategy with
    | None -> (Language.equivalent a b ~alphabet ~depth, None)
    | Some strategy ->
      let r, m =
        Relax_proof.Pipeline.equivalent ~strategy ?audit ?audit_rev
          ~weight:queue_weight a b ~alphabet ~depth
      in
      (r, Some (method_of_pipeline m))
  in
  match decided with
  | Ok () ->
    ( {
        name;
        ok = true;
        detail =
          Fmt.str "%d histories, depth %d"
            (Language.size a ~alphabet ~depth)
            depth;
      },
      None,
      proof_method )
  | Error c ->
    ( { name; ok = false; detail = Fmt.str "%a" Language.pp_counterexample c },
      Some (History.to_string c.Language.history),
      proof_method )

let equivalence_claim ~id ?(kind = Relax_claims.Claim.Equivalence) ?strategy
    ?audit ?audit_rev ~paper name mk_pair ~alphabet ~depth =
  proof_claim ~id ~kind ~paper ~description:name (fun () ->
      let a, b = mk_pair () in
      equivalence ?strategy ?audit ?audit_rev name a b ~alphabet ~depth)

let q1_q2 = Relation.union Instances.q1 Instances.q2

(* The four lattice points against the behaviors the paper names, the
   serial-dependency obligations behind Theorem 4, the lattice shape,
   and the eta' variant (closing remark of Section 3.3) characterized
   as the dropping priority queue DPQ. *)
let claims ?(alphabet = Queue_ops.alphabet (Queue_ops.universe 2)) ?(depth = 5)
    ?strategy () =
  let qca rel () = Qca.automaton_views ~alphabet Instances.pq_spec_eta rel in
  let qca' rel () = Qca.automaton_views ~alphabet Instances.pq_spec_eta' rel in
  let sd a rel () = Serial.is_serial_dependency a rel ~alphabet ~depth in
  [
    equivalence_claim ~id:"pq/top" ?strategy ~paper:"Section 3.3"
      "L(QCA(PQ,{Q1,Q2},eta)) = L(PQ)"
      (fun () -> (qca q1_q2 (), Pqueue.automaton))
      ~alphabet ~depth;
    equivalence_claim ~id:"pq/theorem4" ?strategy ~paper:"Theorem 4"
      "Theorem 4: L(QCA(PQ,{Q1},eta)) = L(MPQ)"
      (fun () -> (qca Instances.q1 (), Mpq.automaton))
      ~alphabet ~depth;
    equivalence_claim ~id:"pq/q2-opq" ?strategy ~paper:"Section 3.3"
      "L(QCA(PQ,{Q2},eta)) = L(OPQ)"
      (fun () -> (qca Instances.q2 (), Opq.automaton))
      ~alphabet ~depth;
    equivalence_claim ~id:"pq/bottom-degen" ?strategy ~paper:"Section 3.3"
      "L(QCA(PQ,{},eta)) = L(DegenPQ)"
      (fun () -> (qca Relation.empty (), Degen.automaton))
      ~alphabet ~depth;
    bool_claim ~id:"pq/sd-q1q2" ~kind:Serial_dependency ~paper:"Definition 3"
      "{Q1,Q2} is a serial dependency relation for PQ"
      (sd Pqueue.automaton q1_q2);
    bool_claim ~id:"pq/sd-q1-insufficient" ~kind:Serial_dependency
      ~paper:"Definition 3" "{Q1} alone is NOT a serial dependency relation"
      (fun () -> not (sd Pqueue.automaton Instances.q1 ()));
    bool_claim ~id:"pq/sd-q2-insufficient" ~kind:Serial_dependency
      ~paper:"Definition 3" "{Q2} alone is NOT a serial dependency relation"
      (fun () -> not (sd Pqueue.automaton Instances.q2 ()));
    bool_claim ~id:"pq/theorem4-lemma" ~kind:Serial_dependency
      ~paper:"Theorem 4 (proof lemma)"
      "Theorem 4 lemma: {Q1} IS a serial dependency relation for MPQ"
      (sd Mpq.automaton Instances.q1);
    equivalence_claim ~id:"pq/theorem4-lemma-qca" ?strategy
      ~paper:"Theorem 4 (proof lemma)"
      "hence L(QCA(MPQ,{Q1})) = L(MPQ) (delta*-based QCA)"
      (fun () ->
        ( Qca.automaton_views ~alphabet
            (Qca.spec_of_automaton Mpq.automaton)
            Instances.q1,
          Mpq.automaton ))
      ~alphabet ~depth:(min depth 4);
    check_claim ~id:"pq/monotone" ~kind:Monotone ~paper:"Section 3.3"
      ~description:"relaxation lattice is monotone (stronger => smaller language)"
      (fun () ->
        let monotone =
          Relaxation.check_monotone
            (Instances.pq_lattice ~alphabet ())
            ~alphabet ~depth
        in
        ( {
            name =
              "relaxation lattice is monotone (stronger => smaller language)";
            ok = monotone = [];
            detail =
              (match monotone with
              | [] -> ""
              | v :: _ -> Fmt.str "%a" Relaxation.pp_violation v);
          },
          None ));
    (* The meet/join conditions L(phi(C1 ∪ C2)) ⊆ L(phi(Ci)) ⊆
       L(phi(C1 ∩ C2)) are exactly the inclusions between comparable
       domain points, so they hold iff the lattice is monotone (see
       {!Relaxation.check_monotone}). *)
    bool_claim ~id:"pq/lattice-shape" ~kind:Monotone ~paper:"Section 3.3"
      "phi respects lattice meets/joins" (fun () ->
        Relaxation.check_monotone
          (Instances.pq_lattice ~alphabet ())
          ~alphabet ~depth
        = []);
    equivalence_claim ~id:"pq/eta-prime-top" ?strategy
      ~paper:"Section 3.3 (eta')"
      "L(QCA(PQ,{Q1,Q2},eta')) = L(PQ) (eta' agrees at the top)"
      (fun () -> (qca' q1_q2 (), Pqueue.automaton))
      ~alphabet ~depth;
    equivalence_claim ~id:"pq/eta-prime-dpq" ~kind:Characterization ?strategy
      ~paper:"Section 3.3 (eta')"
      "L(QCA(PQ,{Q2},eta')) = L(DPQ) (our characterization)"
      (fun () -> (qca' Instances.q2 (), Dpq.automaton))
      ~alphabet ~depth;
    bool_claim ~id:"pq/eta-prime-incomparable" ~kind:Characterization
      ~paper:"Section 3.3 (eta')"
      "eta and eta' relax differently at {Q2} (incomparable languages)"
      (fun () ->
        let a = qca' Instances.q2 () and b = qca Instances.q2 () in
        (not (Language.included_bool a b ~alphabet ~depth))
        || not (Language.included_bool b a ~alphabet ~depth));
  ]

let group ?alphabet ?depth ?strategy () =
  {
    Relax_claims.Registry.gid = "pq";
    title = "Section 3.3 replicated priority-queue lattice (incl. Theorem 4)";
    header = "== Section 3.3: replicated priority queue lattice ==\n";
    claims = claims ?alphabet ?depth ?strategy ();
  }

let run ?alphabet ?depth ?strategy ppf () =
  Relax_claims.Engine.run_print (group ?alphabet ?depth ?strategy ()) ppf
