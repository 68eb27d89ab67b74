open Relax_core

(** The strategy-based proof pipeline: strategy-aware counterparts of
    {!Relax_core.Language.included}, [equivalent] and
    [strictly_included].

    Under {!Strategy.Auto}/{!Strategy.Simulation} an inclusion is first
    attempted as a synthesized, independently certified forward
    simulation between the envelope-restricted automata ({!Envelope},
    {!Sim}); on success the verdict holds for every history carrying at
    most [enqs] envelope weight, at {e any} depth — strictly subsuming
    the depth-bounded verdict, because the envelope budget never drops
    below [depth].  Any synthesis or certification failure falls back
    to the bounded product search {!Relax_core.Language.included}, whose
    verdict and first counterexample history are the depth-bounded
    ones.

    Every entry point is deterministic: synthesis is a breadth-first
    saturation in the caller's alphabet order, with no randomness. *)

(** How a verdict was obtained, surfaced into claim verdicts, the
    reporters, and [expected_claims.json]. *)
type method_ =
  | Proved_simulation of { enqs : int; relation : int; obligations : int }
      (** certified forward simulation: valid at any depth for
          histories of envelope weight [<= enqs] *)
  | Bounded of { depth : int }
      (** the depth-bounded product search of {!Relax_core.Language} *)

val pp_method : method_ Fmt.t

(** [included a b] decides [L(a) ⊆ L(b)].

    [weight] is the envelope weight of one operation (for the queue
    families: 1 for an enqueue, 0 otherwise); [enqs] raises the
    envelope budget above [depth] (never below — defaults to [depth]);
    [max_pairs] bounds synthesis ({!Sim.default_max_pairs});
    [audit] is the per-state larch reified-equality oracle passed to
    {!Sim.certify}; [tamper], a test-only adversarial hook, corrupts
    the candidate relation between synthesis and certification. *)
val included :
  ?strategy:Strategy.t ->
  ?enqs:int ->
  ?max_pairs:int ->
  ?audit:('va -> 'vb -> [ `Equal | `Unequal | `Unknown ]) ->
  ?tamper:
    ((('va * int) list * ('vb * int) list) list ->
    (('va * int) list * ('vb * int) list) list) ->
  weight:(Op.t -> int) ->
  'va Automaton.t ->
  'vb Automaton.t ->
  alphabet:Language.alphabet ->
  depth:int ->
  (unit, Language.counterexample) result * method_

(** Both directions of {!included}; the method is [Proved_simulation]
    only when both directions were (sizes and obligation counts are
    summed). [audit_rev] audits the [b ⊆ a] direction. *)
val equivalent :
  ?strategy:Strategy.t ->
  ?enqs:int ->
  ?max_pairs:int ->
  ?audit:('va -> 'vb -> [ `Equal | `Unequal | `Unknown ]) ->
  ?audit_rev:('vb -> 'va -> [ `Equal | `Unequal | `Unknown ]) ->
  weight:(Op.t -> int) ->
  'va Automaton.t ->
  'vb Automaton.t ->
  alphabet:Language.alphabet ->
  depth:int ->
  (unit, Language.counterexample) result * method_

(** Strict inclusion: the inclusion direction goes through the
    pipeline; the strictness witness is the counterexample of the
    bounded {!Relax_core.Language.included} in the reverse direction —
    a concrete separating history is itself an absolute proof of
    non-inclusion, so a simulated inclusion plus a witness is a
    genuinely proved strict inclusion. *)
val strictly_included :
  ?strategy:Strategy.t ->
  ?enqs:int ->
  ?max_pairs:int ->
  ?audit:('va -> 'vb -> [ `Equal | `Unequal | `Unknown ]) ->
  ?tamper:
    ((('va * int) list * ('vb * int) list) list ->
    (('va * int) list * ('vb * int) list) list) ->
  weight:(Op.t -> int) ->
  'va Automaton.t ->
  'vb Automaton.t ->
  alphabet:Language.alphabet ->
  depth:int ->
  (History.t option, Language.counterexample) result * method_
