open Relax_core
open Relax_quorum

(** Experiment X-deg of EXPERIMENTS.md: the taxicab company of
    Section 3.3 on the message-passing replica runtime with injected
    crashes, one run per lattice point under an identical fault trace. *)

(** A lattice point: its short name, its constraint set and a voting
    assignment realizing it. *)
type point = {
  name : string;  (** the short name the CLI and chaos scenarios use *)
  label : string;  (** the constraint set with its behavior *)
  cset : Cset.t;
  assignment : Assignment.t;
}

(** The four points over [n] sites, in lattice order: top {Q1,Q2}, q1
    {Q1}, q2 {Q2}, bottom {}. *)
val points : n:int -> point list

(** The point named [name] over [n] sites.
    @raise Not_found for a name not in {!point_names}. *)
val point : n:int -> string -> point

(** The names of {!points}, in order. *)
val point_names : string list

(** Extra services of an already-serviced request. *)
val count_duplicates : History.t -> int

(** Deqs that passed over a strictly better pending request. *)
val count_inversions : History.t -> int

(** Acceptance by the behavior the lattice predicts for the constraint
    set (PQ / MPQ / OPQ / DegenPQ). *)
val predicted_accepts : Cset.t -> History.t -> bool

(** The same predicted behavior as a fresh incremental conformance
    oracle. *)
val predicted_online : Cset.t -> Relax_degrade.Online.t

(** The study's run: the chaos runner's defaults at 40 requests, seed 2. *)
val default_config : Relax_chaos.Runner.config

type outcome = {
  label : string;
  requests : int;
  attempted : int;  (** total operations attempted *)
  served : int;  (** completed Deqs *)
  duplicates : int;
  inversions : int;
  mean_latency : float;  (** of completed operations *)
  history_ok : bool;  (** completed history accepted by the prediction *)
  result : Relax_chaos.Runner.result;
      (** the run itself: its unavailable and empty-view counts, history
          and digest *)
}

val pp_outcome : outcome Fmt.t

(** One lattice point under site crash/recover churn at [crash_p] and
    [recover_p] (default: the [crash] nemesis's 0.15 and 0.5): one
    {!Relax_chaos.Runner.run} of the point's assignment with the
    predicted behavior as its online oracle, under the schedule
    {!Relax_chaos.Runner.schedule} draws for [config] (default
    {!default_config}).  The point must be built over [config.sites]. *)
val run_point :
  ?config:Relax_chaos.Runner.config ->
  ?crash_p:float ->
  ?recover_p:float ->
  point ->
  outcome

(** All four points under the same fault schedule. *)
val run_all : ?config:Relax_chaos.Runner.config -> unit -> outcome list

val claims :
  ?config:Relax_chaos.Runner.config -> unit -> Relax_claims.Claim.t list

val group : ?config:Relax_chaos.Runner.config -> unit -> Relax_claims.Registry.group

(** Print the table; [true] when every history matches its prediction. *)
val run :
  ?config:Relax_chaos.Runner.config -> Format.formatter -> unit -> bool
