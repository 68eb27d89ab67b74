open Relax_quorum
open Relax_replica

(** Online constraint monitors: pluggable probes evaluating a constraint
    of [C] against observable runtime state.

    A monitor owns no policy: it reports a health sample when asked and
    the {!Controller} decides what a streak of unhealthy samples means.
    Probes read the live network and replica; they never mutate them. *)

type sample = { healthy : bool; value : float }

type t

(** A custom probe.  [describe] defaults to [name]. *)
val make : name:string -> ?describe:string -> (unit -> sample) -> t

val name : t -> string
val describe : t -> string
val sample : t -> sample
val pp_sample : sample Fmt.t

(** How many up sites' logs differ from the union of all site logs — the
    anti-entropy debt.  0 means every live site knows everything any site
    knows.  The same as {!Replica.lag}, which memoizes it. *)
val lag : Replica.t -> int

(** Fraction of up sites able to assemble both quorums of every operation
    of [assignment] from the sites they can currently reach. *)
val reachability_fraction : Relax_sim.Network.t -> Assignment.t -> float

(** Healthy while {!reachability_fraction} is at least [healthy_above]
    (default 1.0: every up site can still run the constraint's realizing
    assignment). *)
val quorum_reachability :
  name:string ->
  ?healthy_above:float ->
  net:Relax_sim.Network.t ->
  assignment:Assignment.t ->
  unit ->
  t

(** Healthy while at most [max_lag] (default 0) up sites lag the global
    log. *)
val convergence : name:string -> ?max_lag:int -> replica:Replica.t -> unit -> t

(** Healthy while fewer than [budget] (default 3) retries plus quorum
    failures accumulated since the previous sample.  The probe carries the
    baseline internally, so construct a fresh one per run. *)
val retry_pressure :
  name:string -> ?budget:int -> replica:Replica.t -> unit -> t

(** Healthy while at most [max_recovering] (default 0) sites have
    restarted from their journal without yet absorbing a post-recovery
    transfer — gate restoration until anti-entropy has re-joined them. *)
val recovery_settled :
  name:string -> ?max_recovering:int -> replica:Replica.t -> unit -> t
