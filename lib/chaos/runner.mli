(** The chaos run engine: one seeded workload over the replica runtime
    under a pre-generated fault schedule.

    The runner is scenario-agnostic: the caller supplies the client (a
    fixed quorum assignment, or a controlled client whose lattice
    movement is delegated to the degradation controller of lib/degrade,
    emitting Degrade/Restore events as it moves between modes) and
    judges the returned history with {!Oracle.check}.  Everything
    observable is deterministic in [(config, events)]. *)

open Relax_core
open Relax_quorum

type config = {
  sites : int;
  requests : int;
  mean_latency : float;
  timeout : float;
  retries : int;
  backoff : float;  (** base retry backoff, doubled per attempt *)
  gossip_every : int;  (** fixed-client anti-entropy cadence, in operations *)
  op_window : float;
      (** engine time budgeted per operation — a floor: the runner
          stretches it to fit the whole retry ladder (attempts x timeout
          plus backoffs) so operations stay serial at any knob setting *)
  seed : int;
}

val default_config : config

(** The engine-time extent of a run — generate nemesis schedules out to
    here. *)
val horizon : config -> float

type client =
  | Fixed of Assignment.t
  | Controlled of {
      preferred : Assignment.t;
      degraded : Assignment.t;
      degrade : Op.t;
      restore : Op.t;
      controller : Relax_degrade.Controller.config option;
          (** [None] runs {!Relax_degrade.Controller.default_config} *)
    }
      (** delegates lattice movement to the degradation controller:
          quorum-reachability and retry-pressure monitors decide when to
          shed to [degraded], a convergence + reachability gate decides
          when to restore [preferred], and each transition appends the
          matching event to the history *)

type result = {
  history : History.t;
      (** completed operations (with interleaved mode events for a
          controlled client), in completion order *)
  completed : int;
  unavailable : int;
  empty_views : int;
  mode_switches : int;
  attempts : int;
  retries_used : int;
  transitions : Relax_degrade.Controller.transition list;
      (** the mode-switch timeline ([] for a fixed client) *)
  time_to_degrade : float list;
  time_to_restore : float list;
  gossip_rounds : int;  (** adaptive anti-entropy rounds (controlled) *)
  online_violation : Relax_degrade.Online.violation option;
      (** [None] when no online oracle was passed, or it conforms *)
  recoveries : int;
      (** journal recoveries performed (0 unless the run was durable) *)
  metrics : Relax_obs.Metrics.t;
  digest : string;
      (** canonical condensation of the run — replay equivalence is
          string equality of digests *)
}

(** [online], when given, builds a fresh incremental conformance oracle
    per run: a controlled client's history is streamed through it as it
    is produced (violations are flagged at the causing event), a fixed
    client's completion record is fed after the run.

    [durable] (default false) gives every site a write-ahead journal:
    Crash faults then lose volatile state but keep stable storage (with
    a torn tail), Recover replays the journal, and — for a controlled
    client — the restore gate additionally waits until every recovered
    site has re-joined the anti-entropy flow.

    [probe], for a controlled client, is called with the run's replica
    whenever the controller samples its constraints: at every periodic
    tick, and when it checks them before an operation or a restore.  It
    observes and must not mutate.  A fixed client has no controller and
    never calls it. *)
val run :
  ?config:config ->
  ?durable:bool ->
  ?online:(unit -> Relax_degrade.Online.t) ->
  ?probe:(Relax_replica.Replica.t -> unit) ->
  client:client ->
  respond:Relax_replica.Replica.response_chooser ->
  Fault.event list ->
  result
