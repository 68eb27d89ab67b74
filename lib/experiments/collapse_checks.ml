open Relax_core
open Relax_objects

(* Experiments F4-1 / F4-3 and the Section 4.2.2 combination claims: the
   boundary collapses of the semiqueue / stuttering / SSqueue families.

     Semiqueue_1   = FIFO queue          Semiqueue_n = Bag (n-item queues)
     Stuttering_1  = FIFO queue
     SSqueue_{1,1} = FIFO queue
     SSqueue_{1,k} = Semiqueue_k         SSqueue_{j,1} = Stuttering_j

   plus the strict inclusion chains between consecutive family members,
   as claims under "collapses/". *)

type check = Pq_checks.check = { name : string; ok : bool; detail : string }

(* Strict inclusion: the inclusion side goes through the proof pipeline
   when a strategy is given (a simulated inclusion plus the concrete
   separating witness is a genuinely proved strict inclusion); the
   witness side is always the bounded product search of [Language],
   whose first failing history in the reverse direction is the
   witness. *)
let strict ?strategy name small big ~alphabet ~depth =
  let decided, proof_method =
    match strategy with
    | None -> (Language.strictly_included small big ~alphabet ~depth, None)
    | Some strategy ->
      let r, m =
        Relax_proof.Pipeline.strictly_included ~strategy
          ~weight:Pq_checks.queue_weight small big ~alphabet ~depth
      in
      (r, Some (Pq_checks.method_of_pipeline m))
  in
  match decided with
  | Ok (Some witness) ->
    ( {
        name;
        ok = true;
        detail = Fmt.str "witness: %a" History.pp witness;
      },
      Some (History.to_string witness),
      proof_method )
  | Ok None ->
    ( { name; ok = false; detail = "languages coincide at this bound" },
      None,
      proof_method )
  | Error c ->
    ( { name; ok = false; detail = Fmt.str "%a" Language.pp_counterexample c },
      Some (History.to_string c.Language.history),
      proof_method )

(* A bag restricted to at most [n] elements, for the Semiqueue_n = Bag
   claim about n-item queues. *)
let bounded_bag n =
  Automaton.restrict Bag.automaton (fun b -> Multiset.cardinal b <= n)
  |> fun a -> Automaton.rename a (Fmt.str "Bag<=%d" n)

let bounded_semiqueue ~k ~n =
  Automaton.restrict (Semiqueue.automaton k) (fun q -> List.length q <= n)
  |> fun a -> Automaton.rename a (Fmt.str "Semiqueue(%d)<=%d" k n)

let claims ?(alphabet = Queue_ops.alphabet (Queue_ops.universe 2)) ?(depth = 5)
    ?strategy () =
  let collapse ~id ?(strategy = strategy) ?audit ?audit_rev name mk =
    Pq_checks.equivalence_claim ~id ?strategy ?audit ?audit_rev
      ~paper:"Section 4.2" name mk ~alphabet ~depth
  in
  let chain ~id ?(strategy = strategy) name small big =
    Pq_checks.proof_claim ~id ~kind:Inclusion ~paper:"Section 4.2"
      ~description:name (fun () ->
        strict ?strategy name (small ()) (big ()) ~alphabet ~depth)
  in
  (* The larch certification audits, on the collapses whose reified term
     shapes live in one theory: matched deterministic states of the
     certified simulation are compared as canonical terms.  The theories
     are elaborated here, on the main domain, before any claim thunk
     runs in parallel. *)
  let fifoq = Relax_larch.Theories.fifoq () in
  let mbag = Relax_larch.Theories.mbag () in
  let decide tr x y = Relax_larch.Trait.decide_equal tr x y in
  let module R = Relax_larch.Reify in
  [
    collapse ~id:"collapses/semiqueue1-fifo" "Semiqueue_1 = FIFO queue"
      ~audit:(fun x y -> decide fifoq (R.semiqueue x) (R.fifo y))
      ~audit_rev:(fun x y -> decide fifoq (R.fifo x) (R.semiqueue y))
      (fun () -> (Semiqueue.automaton 1, Fifo.automaton));
    collapse ~id:"collapses/stuttering1-fifo" "Stuttering_1 = FIFO queue"
      (fun () -> (Stuttering.automaton 1, Fifo.automaton));
    collapse ~id:"collapses/ssqueue11-fifo" "SSqueue_{1,1} = FIFO queue"
      (fun () -> (Ssqueue.automaton ~j:1 ~k:1, Fifo.automaton));
    collapse ~id:"collapses/ssqueue13-semiqueue3" "SSqueue_{1,3} = Semiqueue_3"
      (fun () -> (Ssqueue.automaton ~j:1 ~k:3, Semiqueue.automaton 3));
    (* deep stuttering envelopes dwarf the bounded search; see
       {!Relax_proof.Strategy.heavy} *)
    collapse ~id:"collapses/ssqueue31-stuttering3"
      ~strategy:(Relax_proof.Strategy.heavy strategy)
      "SSqueue_{3,1} = Stuttering_3"
      (fun () -> (Ssqueue.automaton ~j:3 ~k:1, Stuttering.automaton 3));
    (* Figure 4-2's top row: a three-item Semiqueue_3 behaves as a bag. *)
    collapse ~id:"collapses/semiqueue3-bag" "three-item Semiqueue_3 = three-item Bag"
      ~audit:(fun x y -> decide mbag (R.seq x) (R.multiset y))
      ~audit_rev:(fun x y -> decide mbag (R.multiset x) (R.seq y))
      (fun () -> (bounded_semiqueue ~k:3 ~n:3, bounded_bag 3));
    chain ~id:"collapses/semiqueue1-below-2" "Semiqueue_1 ⊂ Semiqueue_2"
      (fun () -> Semiqueue.automaton 1)
      (fun () -> Semiqueue.automaton 2);
    chain ~id:"collapses/semiqueue2-below-3" "Semiqueue_2 ⊂ Semiqueue_3"
      (fun () -> Semiqueue.automaton 2)
      (fun () -> Semiqueue.automaton 3);
    chain ~id:"collapses/stuttering1-below-2" "Stuttering_1 ⊂ Stuttering_2"
      (fun () -> Stuttering.automaton 1)
      (fun () -> Stuttering.automaton 2);
    chain ~id:"collapses/stuttering2-below-3"
      ~strategy:(Relax_proof.Strategy.heavy strategy)
      "Stuttering_2 ⊂ Stuttering_3"
      (fun () -> Stuttering.automaton 2)
      (fun () -> Stuttering.automaton 3);
  ]

let group ?alphabet ?depth ?strategy () =
  {
    Relax_claims.Registry.gid = "collapses";
    title = "Section 4.2 semiqueue / stuttering / SSqueue boundary collapses";
    header = "== Section 4.2: semiqueue / stuttering collapses ==\n";
    claims = claims ?alphabet ?depth ?strategy ();
  }

let run ?alphabet ?depth ?strategy ppf () =
  Relax_claims.Engine.run_print (group ?alphabet ?depth ?strategy ()) ppf
