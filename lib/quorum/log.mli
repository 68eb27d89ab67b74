open Relax_core

(** Replicated-object logs (Section 3.1 of the paper): a set of timestamped
    operation entries ordered by timestamp.  A replicated object's current
    value is reconstructed by merging the logs of a quorum of sites in
    timestamp order, discarding duplicates.

    Entries are identified by [(timestamp, operation)] and the log is a
    balanced set over that order: {!insert}, {!mem} and {!remove} cost
    O(log n), {!merge} is a set union, and {!max_ts} reads the last
    entry.  Every view of a log ({!entries}, {!to_history},
    {!split_at_watermark}) is in timestamp order. *)

type entry

val entry : ts:Timestamp.t -> Op.t -> entry
val entry_ts : entry -> Timestamp.t
val entry_op : entry -> Op.t
val compare_entry : entry -> entry -> int
val equal_entry : entry -> entry -> bool

type t

val empty : t
val is_empty : t -> bool
val length : t -> int

(** Entries in timestamp order. *)
val entries : t -> entry list

(** Insert one entry, discarding it if already present. *)
val insert : t -> entry -> t

val of_entries : entry list -> t

(** Merge two logs, discarding duplicates: the same timestamped operation
    recorded at several sites is one event.  Associative, commutative and
    idempotent (checked by property tests). *)
val merge : t -> t -> t

val mem : t -> entry -> bool

(** The log without the given entry (the same log when it is absent). *)
val remove : t -> entry -> t

(** The history a log denotes: its operations in timestamp order. *)
val to_history : t -> History.t

(** The largest timestamp present ([Timestamp.zero] on the empty log). *)
val max_ts : t -> Timestamp.t

(** The entries satisfying the predicate. *)
val filter : (entry -> bool) -> t -> t

(** Entries at or before the watermark, and the rest. *)
val split_at_watermark : t -> Timestamp.t -> entry list * entry list

(** Checkpointing (log compaction): replace the prefix at or before
    [watermark] with the synthetic operations [summary] reconstructing
    its effect, stamped with small site-0 timestamps.  Raises when the
    summary is longer than the watermark's time (which cannot happen for
    summaries no longer than the prefix).  All replicas must apply the
    same checkpoint, or merges would double-count. *)
val compact : t -> watermark:Timestamp.t -> summary:Relax_core.Op.t list -> t

(** Same entries (not the same tree shape: never compare logs with
    [(=)]). *)
val equal : t -> t -> bool

val pp_entry : entry Fmt.t
val pp : t Fmt.t
