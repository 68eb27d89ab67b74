(** Bounded exploration of automaton languages.

    The languages of the paper (prefix-closed sets of histories over an
    operation alphabet) are compared up to a depth bound over a finite
    alphabet by one procedure, {!included}: a breadth-first search of the
    product of the determinized automata that reports the first
    counterexample history on failure.  All of the paper's language claims
    — lattice inclusions, Theorem 4, the Semiqueue_1 = FIFO collapse — are
    decided with these functions. *)

type alphabet = Op.t list

(** Domain-local checker counters, surfaced per claim by the claim
    engine of [relax_claims].  Counters belong to the domain running the
    check (a check's whole exploration stays on one domain, nested pool
    calls being sequential), so [reset] before and [read] after a check
    observe exactly that check's work.  Instrumentation never changes
    any checker result. *)
module Stats : sig
  type t = {
    mutable histories : int;
        (** histories enumerated by {!enumerate} or counted by {!size};
            the inclusion checkers never touch it *)
    mutable visited : int;
        (** distinct product state-set pairs visited by the memoized
            fixpoint of {!included} (and by simulation synthesis) *)
    mutable memo_hits : int;
        (** product pairs skipped because already visited *)
    mutable obligations : int;
        (** simulation obligations discharged (init, per-pair step and
            output-matching checks, reified-state audits) by the proof
            pipeline of [relax_proof] *)
    mutable relation : int;
        (** total size of certified simulation relations *)
    mutable synthesized : int;
        (** inclusion directions proved by a certified simulation *)
    mutable fallbacks : int;
        (** inclusion directions that fell back to the bounded
            {!included} after synthesis or certification failed *)
  }

  (** Zero this domain's counters. *)
  val reset : unit -> unit

  (** A snapshot copy of this domain's counters. *)
  val read : unit -> t

  (** The live domain-local counter cell — the instrumentation hook the
      proof pipeline increments through.  Mutating it never changes any
      checker result. *)
  val cell : unit -> t
end

(** All accepted histories of length [<= depth], shortest first. *)
val enumerate : 'v Automaton.t -> alphabet:alphabet -> depth:int -> History.t list

(** Number of accepted histories of length [<= depth], counted over
    determinized state sets rather than one history at a time. *)
val size : 'v Automaton.t -> alphabet:alphabet -> depth:int -> int

(** Per-depth census: element [i] is the number of accepted histories of
    length exactly [i]. *)
val census : 'v Automaton.t -> alphabet:alphabet -> depth:int -> int list

type counterexample = {
  history : History.t;
  holds_in : string;  (** name of the accepting automaton *)
  fails_in : string;  (** name of the rejecting automaton *)
}

val pp_counterexample : counterexample Fmt.t

(** Interning of states by (hash, equal): dense integer ids, so a
    deduplicated state set canonicalizes to a sorted id list.  This is
    the state abstraction behind the memoized checker below; the
    forward-simulation synthesizer of [relax_proof] reuses it to
    represent candidate relations.  A hash collision falls back to
    [equal] within its bucket, so an imperfect hash costs time, never
    correctness. *)
module Intern : sig
  type 'v t

  val create : ('v -> int) -> ('v -> 'v -> bool) -> 'v t

  (** The dense id of a state, allocated on first sight. *)
  val id : 'v t -> 'v -> int

  (** The state first interned under an id, in O(1).  Raises
      [Invalid_argument] on an id not yet allocated. *)
  val value : 'v t -> int -> 'v

  (** The canonical key of a state set: its sorted, deduplicated ids. *)
  val key : 'v t -> 'v list -> int list
end

(** [included a b] checks [L(a) ⊆ L(b)] up to [depth].

    A memoized breadth-first fixpoint over the reachable (A-state-set,
    B-state-set) pairs of the product construction, visiting each distinct
    pair once instead of each accepted history.  On failure the
    counterexample is the shortest history [a] accepts and [b] rejects,
    first in breadth-first alphabet order — the one enumerating [L(a)]
    would meet first.  Automata without a state hash (see
    {!Automaton.make}) are interned by [equal] alone: same answer, more
    time. *)
val included :
  'v Automaton.t ->
  'w Automaton.t ->
  alphabet:alphabet ->
  depth:int ->
  (unit, counterexample) result

(** [equivalent a b] checks [L(a) = L(b)] up to [depth]: {!included} in
    both directions, the [a ⊆ b] witness first. *)
val equivalent :
  'v Automaton.t ->
  'w Automaton.t ->
  alphabet:alphabet ->
  depth:int ->
  (unit, counterexample) result

(** [strictly_included a b] checks [L(a) ⊆ L(b)]; on success returns
    [Some h] for a witness [h ∈ L(b) \ L(a)], or [None] if the languages
    coincide up to the bound. *)
val strictly_included :
  'v Automaton.t ->
  'w Automaton.t ->
  alphabet:alphabet ->
  depth:int ->
  (History.t option, counterexample) result

val included_bool :
  'v Automaton.t -> 'w Automaton.t -> alphabet:alphabet -> depth:int -> bool

val equivalent_bool :
  'v Automaton.t -> 'w Automaton.t -> alphabet:alphabet -> depth:int -> bool

(** Full classification of two specifications by their bounded languages —
    the comparison of specifications the paper's Section 5 envisions.
    Witness histories separate the languages. *)
type classification =
  | Equal
  | Left_below_right of History.t  (** [L(a) ⊂ L(b)]; witness in b \ a *)
  | Right_below_left of History.t  (** [L(b) ⊂ L(a)]; witness in a \ b *)
  | Incomparable of History.t * History.t  (** (in a \ b, in b \ a) *)

val pp_classification : classification Fmt.t

val classify :
  'v Automaton.t ->
  'w Automaton.t ->
  alphabet:alphabet ->
  depth:int ->
  classification
