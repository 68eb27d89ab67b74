(** Experiment X-amnesia of EXPERIMENTS.md: the stable-storage assumption
    is load-bearing.  The same chaos workload against the preferred
    assignment (point top), under crash/recover churn (logs survive)
    versus the amnesia nemesis (a crashed site loses its log):
    crash-recovery keeps every history in [L(PQ)]; amnesia produces
    violations. *)

(** The study's run: the chaos runner's defaults at 25 requests, seed
    41. *)
val default_config : Relax_chaos.Runner.config

(** One run at point top under the [crash] or [amnesia] nemesis at the
    study's rates (crash 0.25, recover 0.5), scheduled by
    {!Relax_chaos.Runner.schedule} for [config], and its verdict
    against [L(PQ)]. *)
val run_once :
  ?config:Relax_chaos.Runner.config ->
  amnesia:bool ->
  unit ->
  Relax_chaos.Runner.result * Relax_chaos.Oracle.verdict

(** Both regimes at [runs] (default 5) consecutive seeds from
    [config.seed]; [true] when crash-recovery is safe at every seed and
    amnesia breaks at least one. *)
val run :
  ?config:Relax_chaos.Runner.config ->
  ?runs:int ->
  Format.formatter ->
  unit ->
  bool
