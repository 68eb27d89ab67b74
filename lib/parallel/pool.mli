(** Domain fan-out for independent work items.

    [map f l] applies [f] to every element of [l], possibly across several
    OCaml domains, and returns the results in input order.  Tasks must not
    share mutable state (construct automata and other cache-bearing values
    inside the task).  Exceptions raised by tasks are re-raised in input
    order once all tasks have finished.

    Nested calls — [map] invoked from inside a worker domain — degrade to
    a sequential [List.map], so parallel checks may freely call parallel
    estimators.

    So does a call made while the calling domain has an ambient tracer
    ({!Relax_obs.Tracer.Ambient.active}): the ambient tracer is
    per-domain, so tasks on pool workers would record nothing.  A traced
    call therefore records every task's events, in input order, exactly
    as at [jobs = 1].  Callers that want parallelism under a trace run
    the fan-out inside {!Relax_obs.Tracer.Ambient.without} and record
    the results afterwards (as the claim engine does). *)

(** Name of the environment variable consulted for the default degree of
    parallelism ["RLX_JOBS"]. *)
val jobs_env : string

(** The default number of domains: the value set with
    {!set_default_jobs}, else a positive [RLX_JOBS], else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Override the default degree of parallelism for the whole process (the
    [--jobs] command-line flag).  Raises [Invalid_argument] on values
    below 1. *)
val set_default_jobs : int -> unit

(** [map ?jobs f l] is [List.map f l] computed with up to [jobs] domains
    (default {!default_jobs}), results in input order.  The calling
    domain takes part, so at most [jobs - 1] pool workers run tasks of
    this call, however many an earlier, wider call left parked. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
