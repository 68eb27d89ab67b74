open Relax_core
open Relax_quorum

(** The quorum-consensus replica runtime (Section 3.1 of the paper,
    executed for real over the discrete-event network).

    A client executes an operation in the paper's three steps: merge the
    logs of an initial quorum into a view; choose a response consistent
    with the view; record the new entry at a final quorum, with remaining
    updates propagating in the background.  Crashes, partitions and
    message loss come from the network model; an attempt that cannot
    assemble quorums before the timeout aborts (its tentative entry is
    tombstoned everywhere) and is retried with seeded, jittered
    exponential backoff up to the configured retry bound, after which
    the operation reports [Unavailable].  Quorum counting deduplicates
    per site, so duplicated deliveries never fake a quorum. *)

type result = Completed of Op.t * float  (** response, latency *)
            | Unavailable of string

(** Chooses the response to an invocation given the merged view ([None]
    when no response is consistent) — the executable form of the
    evaluation function [eta]. *)
type response_chooser = History.t -> Op.invocation -> Op.t option

type t

(** Raises when the network and assignment disagree on the site count,
    or on a negative [retries]/[backoff].

    [retries] (default 2) bounds the extra attempts after a first
    timeout; [backoff] (default 8.0) is the base delay before attempt 2,
    doubled per further attempt and jittered by a factor drawn in
    [[1, 1.5)] from a stream split off the engine RNG at creation (so
    backoff is deterministic per seed).  When [metrics] is given, the
    replica counts [replica/attempts], [replica/retries],
    [replica/timeouts], [replica/completed] and [replica/unavailable]
    there and records the [replica/backoff] delays. *)
val create :
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?metrics:Relax_obs.Metrics.t ->
  Relax_sim.Engine.t ->
  Relax_sim.Network.t ->
  Assignment.t ->
  respond:response_chooser ->
  t

val engine : t -> Relax_sim.Engine.t
val network : t -> Relax_sim.Network.t

(** The assignment currently in force. *)
val assignment : t -> Assignment.t

(** Live lattice movement: re-point the replica at the assignment realizing
    a different lattice point.  Thresholds are read once at the start of
    each {!execute}, so in-flight operations keep the quorums they started
    with; only subsequent operations see the switch.  Raises on a site
    count differing from the network's. *)
val set_assignment : t -> Assignment.t -> unit

(** Site [s]'s current log.  Logs are indexed sets ({!Log}): reading
    one is O(1), and an absorbed transfer costs a set union plus, when
    traced or journaled, one O(log n) membership test per entry. *)
val site_log : t -> int -> Log.t

(** The union of all site logs. *)
val global_log : t -> Log.t

(** The anti-entropy lag: how many up sites' logs differ from
    {!global_log}.  0 means every live site knows everything any site
    knows.  Memoized on a version every log write bumps and on the
    up-site list, so repeated reads between log changes, crashes and
    recoveries cost one list comparison. *)
val lag : t -> int

(** Completed operations in completion-time order, with their times. *)
val completed : t -> (float * Op.t) list

(** Just the operations, in completion order — the history the
    verification experiments replay through the predicted behavior. *)
val completed_history : t -> History.t

val unavailable_count : t -> int

(** Total attempts started (first tries and retries). *)
val attempts_total : t -> int

(** Attempts that were retries of a timed-out predecessor. *)
val retries_total : t -> int

val op_latencies : t -> float list

(** One anti-entropy round: every up site pushes its log to every peer it
    can currently reach — partition-aware, so during a partition only the
    reachable side converges, and rounds after heal complete convergence
    without double-applying entries (log merge is idempotent). *)
val gossip : t -> unit

(** Stable-storage loss: the site forgets its log, its clock and (when
    journaled) its journal.  For journal-free replicas this doubles as
    the crash model — the quorum-consensus guarantees assume logs
    survive crashes; see the amnesia experiment. *)
val wipe_site : t -> int -> unit

(** {1 Durability: write-ahead journals}

    With {!enable_journals}, every site gets a crash-faithful journal:
    absorbed entries are written ahead, synced before the site
    acknowledges an update (the op-commit barrier), tombstoned on
    abort, and snapshotted at checkpoints.  {!crash_site} then models
    power loss (volatile log gone, journal keeps its synced prefix
    plus a torn tail) and {!recover_site} restarts the site from the
    journal, after which anti-entropy re-joins it. *)

(** Give every site a write-ahead journal (idempotent).  [segment_size]
    is the journal rotation threshold in bytes. *)
val enable_journals : ?segment_size:int -> t -> unit

val journaled : t -> int -> bool

(** Power loss at site [s]: a no-op unless the site is journaled. *)
val crash_site : t -> int -> unit

(** Restart site [s] from its journal: truncate the torn tail, replay
    entries/tombstones/checkpoints (also honoring the replica-global
    tombstones, in case an abort's own record was torn off), restore
    the clock, and mark the site recovering until it absorbs its first
    post-restart transfer.  A no-op unless the site is journaled. *)
val recover_site : t -> int -> unit

(** Sites currently restarted-but-not-yet-re-joined. *)
val recovering_count : t -> int

(** Total successful journal recoveries so far. *)
val recoveries : t -> int

(** Log compaction: when the prefix at or before [watermark] is identical
    at every site, replace it everywhere by [summarize prefix-history]
    (synthetic operations reconstructing its effect) and return the
    number of entries reclaimed per site; [None] when the prefix is not
    yet stable, or when an in-flight operation's tentative entry at or
    below the watermark could still commit or abort (summarizing it away
    would prejudge the race). *)
val checkpoint :
  t ->
  watermark:Timestamp.t ->
  summarize:(History.t -> Op.t list) ->
  int option

(** Execute one invocation for a client attached to [client_site];
    [callback] fires exactly once. *)
val execute : t -> client_site:int -> Op.invocation -> (result -> unit) -> unit
