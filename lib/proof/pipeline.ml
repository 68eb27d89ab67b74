open Relax_core

(* The strategy-based proof pipeline: the strategy-aware counterparts of
   {!Relax_core.Language.included}/[equivalent]/[strictly_included].

   Under [Auto]/[Simulation] an inclusion is first attempted as a
   synthesized-and-certified forward simulation between the
   envelope-restricted automata (see {!Envelope}, {!Sim}): on success
   the verdict is *proved* for every history with at most [enqs]
   envelope weight, at any depth — strictly subsuming the depth-bounded
   check, since a depth-D history carries at most D weight and the
   envelope budget never drops below the depth.  Any synthesis or
   certification failure falls back to the bounded product search of
   {!Relax_core.Language}, whose verdict and witness are the
   depth-bounded ones. *)

type method_ =
  | Proved_simulation of { enqs : int; relation : int; obligations : int }
  | Bounded of { depth : int }

let pp_method ppf = function
  | Proved_simulation { enqs; relation; obligations } ->
    Fmt.pf ppf "proved(sim, <=%d enqs, %d pairs, %d obligations)" enqs relation
      obligations
  | Bounded { depth } -> Fmt.pf ppf "bounded(depth %d)" depth

let combine m1 m2 ~depth =
  match (m1, m2) with
  | Proved_simulation a, Proved_simulation b ->
    Proved_simulation
      {
        enqs = min a.enqs b.enqs;
        relation = a.relation + b.relation;
        obligations = a.obligations + b.obligations;
      }
  | _ -> Bounded { depth }

(* One simulation attempt over already-restricted automata with shared
   steppers; [Ok cert] means every obligation discharged. *)
let attempt ?max_pairs ?audit ?tamper ~stepper_a ~stepper_b ea eb ~alphabet =
  match Sim.synthesize ?max_pairs ~stepper_a ~stepper_b ea eb ~alphabet with
  | Error _ as e -> e
  | Ok cand -> (
    let cand =
      match tamper with
      | None -> cand
      | Some f -> { cand with Sim.pairs = f cand.Sim.pairs }
    in
    let audit = Option.map (fun decide (x, _) (y, _) -> decide x y) audit in
    match Sim.certify ?audit ~stepper_a ~stepper_b cand with
    | Error _ -> Error Sim.Refuted
    | Ok cert -> Ok cert)

let record_success budget (cert : Sim.cert) =
  let stats = Language.Stats.cell () in
  stats.Language.Stats.synthesized <- stats.Language.Stats.synthesized + 1;
  Proved_simulation
    {
      enqs = budget;
      relation = cert.Sim.relation;
      obligations = cert.Sim.obligations;
    }

let record_fallback () =
  let stats = Language.Stats.cell () in
  stats.Language.Stats.fallbacks <- stats.Language.Stats.fallbacks + 1

(* The envelope budget never drops below the depth bound: a depth-D
   history carries at most D units of weight, so a certified simulation
   subsumes the bounded verdict. *)
let budget_of ~enqs ~depth =
  match enqs with Some n -> max n depth | None -> depth

let included ?(strategy = Strategy.Auto) ?enqs ?max_pairs ?audit ?tamper
    ~weight (a : 'va Automaton.t) (b : 'vb Automaton.t) ~alphabet ~depth =
  let bounded () = (Language.included a b ~alphabet ~depth, Bounded { depth }) in
  match strategy with
  | Strategy.Bounded_enum -> bounded ()
  | Strategy.Auto | Strategy.Simulation -> (
    let budget = budget_of ~enqs ~depth in
    let ea = Envelope.restrict ~weight ~budget a in
    let eb = Envelope.restrict ~weight ~budget b in
    let stepper_a = Sim.Stepper.create ea in
    let stepper_b = Sim.Stepper.create eb in
    match
      attempt ?max_pairs ?audit ?tamper ~stepper_a ~stepper_b ea eb ~alphabet
    with
    | Error _ ->
      record_fallback ();
      bounded ()
    | Ok cert -> (Ok (), record_success budget cert))

let equivalent ?(strategy = Strategy.Auto) ?enqs ?max_pairs ?audit ?audit_rev
    ~weight a b ~alphabet ~depth =
  match strategy with
  | Strategy.Bounded_enum ->
    (Language.equivalent a b ~alphabet ~depth, Bounded { depth })
  | Strategy.Auto | Strategy.Simulation -> (
    let budget = budget_of ~enqs ~depth in
    let ea = Envelope.restrict ~weight ~budget a in
    let eb = Envelope.restrict ~weight ~budget b in
    (* both directions walk the same product, so they share steppers:
       the reverse direction and both certifications step each distinct
       (state-set, op) from the memo built by the forward synthesis *)
    let stepper_a = Sim.Stepper.create ea in
    let stepper_b = Sim.Stepper.create eb in
    match
      attempt ?max_pairs ?audit ~stepper_a ~stepper_b ea eb ~alphabet
    with
    | Error _ ->
      record_fallback ();
      (Language.equivalent a b ~alphabet ~depth, Bounded { depth })
    | Ok cert_fwd -> (
      match
        attempt ?max_pairs ?audit:audit_rev ~stepper_a:stepper_b
          ~stepper_b:stepper_a eb ea ~alphabet
      with
      | Error _ ->
        record_fallback ();
        (* the forward direction is proved for any bounded history, so
           only the reverse direction still needs the bounded check *)
        (Language.included b a ~alphabet ~depth, Bounded { depth })
      | Ok cert_rev ->
        let m1 = record_success budget cert_fwd in
        let m2 = record_success budget cert_rev in
        (Ok (), combine m1 m2 ~depth)))

let strictly_included ?strategy ?enqs ?max_pairs ?audit ?tamper ~weight small
    big ~alphabet ~depth =
  match
    included ?strategy ?enqs ?max_pairs ?audit ?tamper ~weight small big
      ~alphabet ~depth
  with
  | Error c, m -> (Error c, m)
  | Ok (), m -> (
    (* Strictness needs a concrete separating history — itself an
       absolute proof of non-inclusion, so a simulated inclusion plus a
       witness is a genuinely proved strict inclusion. *)
    match Language.included big small ~alphabet ~depth with
    | Error w -> (Ok (Some w.Language.history), m)
    | Ok () -> (Ok None, Bounded { depth }))
