open Relax_core

(** Quorum consensus automata (Section 3.2 of the paper).

    Given the specification of a simple object automaton [A] and a quorum
    intersection relation [Q], [QCA(A,Q)] accepts [H . p] whenever some
    Q-view [G] of [H] for [p] admits states [s ∈ eval(G)] and
    [s' ∈ eval(G . p)] satisfying [p]'s pre- and postconditions.  With
    [eval = delta*] this is [QCA(A,Q)]; substituting an evaluation
    function [eta] gives [QCA(A,Q,eta)]. *)

type 'v spec

val make_spec :
  ?hash:('v -> int) ->
  ?extend:('v list -> Op.t -> 'v list) ->
  name:string ->
  eval:(History.t -> 'v list) ->
  pre:('v -> Op.invocation -> bool) ->
  post:('v -> Op.t -> 'v -> bool) ->
  equal:('v -> 'v -> bool) ->
  unit ->
  'v spec

(** The specification induced by an automaton: [eval] is [delta*] and the
    pre/post conjunction is exactly the transition relation. *)
val spec_of_automaton : 'v Automaton.t -> 'v spec

(** The specification of an automaton with [delta*] replaced by a total
    evaluation function [eta], given as a left fold
    [eta h = fold_left step init h] so it extends incrementally. *)
val spec_with_eta :
  ?hash:('v -> int) ->
  init:'v ->
  step:('v -> Op.t -> 'v) ->
  pre:('v -> Op.invocation -> bool) ->
  post:('v -> Op.t -> 'v -> bool) ->
  equal:('v -> 'v -> bool) ->
  name:string ->
  unit ->
  'v spec

(** The history-state quorum consensus automaton: its state is the
    accepted history, and per-history caches make repeated walks cheap.
    Works for any spec; exponential per step in the depth bound.  The
    test suite checks it, and {!automaton_views}, against the literal
    definition above evaluated over every Q-view of the history. *)
val automaton : ?name:string -> 'v spec -> Relation.t -> History.t Automaton.t

(** The state of {!automaton_views}: a dense id naming one view map.  The
    map sends each subset [S] of the alphabet's invocation classes to the
    distinct evaluations of the Q-closed subhistories containing every
    position the invocations of [S] are required to observe.  Two states
    of one automaton value are equal iff their maps are; an id means
    nothing to any other automaton value. *)
type 'v views_state

(** The views-abstracted quorum consensus automaton — same bounded
    language as {!automaton}, but the state forgets the history and keeps
    only view evaluations, so distinct histories with the same
    evaluations collapse to one state and the memoized checker in
    {!Language} explores a quotient automaton.

    Evaluations, the evaluation sets of a map and the maps themselves
    are interned to dense ids, and each of them is stepped by an
    operation at most once, so repeated explorations of one automaton
    value — both directions of an equivalence, then its language size —
    replay memoized steps.  The
    caches are private to the returned value, which therefore must not
    be shared across domains: build it inside the task that uses it.

    Requires a spec with an incremental evaluation ([spec_with_eta] or
    [spec_of_automaton]); raises [Invalid_argument] otherwise, or when
    stepped with an operation whose invocation is outside [alphabet]. *)
val automaton_views :
  ?name:string ->
  alphabet:Op.t list ->
  'v spec ->
  Relation.t ->
  'v views_state Automaton.t
