open Relax_core

(** Experiment X-adapt of EXPERIMENTS.md: the combined environment+object
    automaton of Section 2.3, realized end to end on the live degradation
    controller (lib/degrade).  The controller degrades to "any available
    site" when the monitored quorum constraints fail and restores the
    preferred mode only after its gate sees anti-entropy reconvergence;
    the event+operation history must be accepted by the combined
    automaton over the two-point sublattice (PQ / tracking-DegenPQ on a
    shared present/absent state space), and the online oracle's
    incremental verdict must agree with the post-hoc replay. *)

val degrade_event : Op.t
val restore_event : Op.t

(** The combined automaton the run is replayed through. *)
val combined : (Cset.t * Relax_objects.Mpq.state) Automaton.t

(** Majority quorums for both operations — the top of the two-point
    lattice the controller moves over. *)
val preferred_assignment : n:int -> Relax_quorum.Assignment.t

(** "Any available site" thresholds — the bottom. *)
val relaxed_assignment : n:int -> Relax_quorum.Assignment.t

(** The controller-driven client moving between the two assignments,
    emitting {!degrade_event} and {!restore_event} — the client of the
    chaos "adaptive" scenario. *)
val client : sites:int -> Relax_chaos.Runner.client

(** The study's run: the chaos runner's defaults at 30 requests, seed
    31. *)
val default_config : Relax_chaos.Runner.config

(** One {!client} run under the [crash] nemesis's schedule for [config]
    (default {!default_config}), with the combined automaton as its
    online oracle, and the post-hoc verdict on its history. *)
val run_once :
  ?config:Relax_chaos.Runner.config ->
  unit ->
  Relax_chaos.Runner.result * Relax_chaos.Oracle.verdict

(** Print the run and its controller timeline; [true] when both
    verdicts accept and the run switched modes and served some
    operations degraded. *)
val run :
  ?config:Relax_chaos.Runner.config -> Format.formatter -> unit -> bool
