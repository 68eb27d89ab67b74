(** Relaxation lattices (Section 2.2 of the paper).

    A relaxation lattice is a set of constraints [C], a lattice of automata
    [A] and a lattice homomorphism [phi : 2^C -> A], oriented so that the
    strongest constraint set maps to the smallest ("preferred") language.
    [phi] may be defined over a proper sublattice of [2^C] (e.g. the bank
    account never relaxes A2). *)

type 'v t

(** [make ~name ~constraints phi] builds a lattice over the given
    constraint vocabulary.  [in_domain] restricts [phi] to a sublattice of
    [2^C]; it defaults to the full powerset. *)
val make :
  ?in_domain:(Cset.t -> bool) ->
  name:string ->
  constraints:string list ->
  (Cset.t -> 'v Automaton.t) ->
  'v t

val name : 'v t -> string
val constraints : 'v t -> string list

(** The constraint sets on which [phi] is defined, ordered by cardinality. *)
val domain : 'v t -> Cset.t list

(** [phi t c] is the automaton at lattice point [c].  Raises
    [Invalid_argument] outside the domain. *)
val phi : 'v t -> Cset.t -> 'v Automaton.t

(** The behavior at the top of the lattice. *)
val preferred : 'v t -> 'v Automaton.t

type violation = {
  weaker : Cset.t;
  stronger : Cset.t;
  counterexample : Language.counterexample;
}

val pp_violation : violation Fmt.t

(** Checks the defining property of a relaxation lattice up to the bound:
    [C1 ⊂ C2] implies [L(phi(C2)) ⊆ L(phi(C1))].  Returns all violations
    (empty list = lattice is monotone).

    This also settles the lattice-shape conditions
    [L(phi(C1 ∪ C2)) ⊆ L(phi(Ci)) ⊆ L(phi(C1 ∩ C2))] over the domain:
    each is an inclusion between comparable domain points, stronger set
    strictly containing the weaker (or trivial when they are equal), and
    every comparable pair [S ⊃ W] arises as such a condition, from
    [C1 = S] and [C2 = W]. *)
val check_monotone :
  'v t -> alphabet:Language.alphabet -> depth:int -> violation list

(** Groups domain points with equal bounded languages (decided by
    {!Language.equivalent}), labelled by the automaton name of each
    group's first point — the shape of the paper's Figure 4-2. *)
val behavior_classes :
  'v t ->
  alphabet:Language.alphabet ->
  depth:int ->
  (Cset.t list * string) list
