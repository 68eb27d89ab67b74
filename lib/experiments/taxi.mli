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

type outcome = {
  label : string;
  requests : int;
  attempted : int;  (** total operations attempted *)
  served : int;
  unavailable : int;  (** quorum not assemblable before the timeout *)
  empty_views : int;  (** Deqs whose view showed nothing to dispatch *)
  duplicates : int;
  inversions : int;
  mean_latency : float;
  history_ok : bool;  (** completed history accepted by the prediction *)
}

val pp_outcome : outcome Fmt.t

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

type params = {
  sites : int;
  requests : int;
  crash_probability : float;
  recover_probability : float;
  mean_latency : float;
  seed : int;
}

val default_params : params

(** One lattice point under one (seed-determined) fault trace.  The
    client knobs default to the experiment's historical values
    ([timeout] 120.0, the replica's retry/backoff defaults); `rlx
    simulate taxi --timeout/--retries/--backoff` overrides them. *)
val run_point :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  point ->
  outcome

(** All four points under the same fault trace. *)
val run_all :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  outcome list

val claims :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  Relax_claims.Claim.t list

val group :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  unit ->
  Relax_claims.Registry.group

(** Print the table; [true] when every history matches its prediction. *)
val run :
  ?params:params ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  Format.formatter ->
  unit ->
  bool
