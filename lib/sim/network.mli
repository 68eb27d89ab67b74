(** Fault-injecting network model over {!Engine}.

    Sites are numbered [0..n-1].  Messages are closures delivered after a
    randomized (exponential) latency, subject to loss; delivery is
    suppressed when the destination is crashed or the endpoints are in
    different partition cells at delivery time.

    Every fault knob is also runtime-tunable (loss, duplication, extra
    delay, per-site sender clock skew) so a chaos schedule can switch
    faults on and off mid-run; see {!set_drop_probability} and
    friends. *)

type t

val create :
  ?mean_latency:float -> ?drop_probability:float -> Engine.t -> sites:int -> t

(** The engine the network schedules on (its clock stamps trace events). *)
val engine : t -> Engine.t

val sites : t -> int
val is_up : t -> int -> bool
val up_sites : t -> int list
val up_count : t -> int

(** Take a site down / bring it back.  Idempotent; raise
    [Invalid_argument] on a bad site number like the other per-site
    mutators. *)
val crash : t -> int -> unit

val recover : t -> int -> unit

(** Split the network into cells; unlisted sites share cell 0. *)
val partition : t -> int list list -> unit

(** Restore full connectivity. *)
val heal : t -> unit

(** Whether any partition is currently in force. *)
val partitioned : t -> bool

val connected : t -> int -> int -> bool

(** Can [src] currently reach [dst]?  (Both up and same cell.) *)
val reachable : t -> src:int -> dst:int -> bool

(** [(sent, delivered, dropped)] counters.  [sent] counts logical sends
    (a batch of [k] targets counts [k]); [delivered] and [dropped] count
    physical copies, so once the queue drains
    [delivered + dropped = sent + duplicated]. *)
val stats : t -> int * int * int

(** Messages duplicated by the duplication fault (each such message put
    two physical copies on the wire, each subject to its own loss
    draw). *)
val duplicated : t -> int

(** {1 Runtime fault knobs}

    Raises [Invalid_argument] on probabilities outside [[0,1]], negative
    delays, or bad site numbers. *)

val set_drop_probability : t -> float -> unit
val drop_probability : t -> float

(** Probability that a sent message is delivered twice, each copy with
    its own latency. *)
val set_dup_probability : t -> float -> unit

val dup_probability : t -> float

(** A uniform extra per-message delay in [[0, d]] — raising it fattens
    the latency tail, which is what makes reordering bursts likely. *)
val set_extra_delay : t -> float -> unit

val extra_delay : t -> float

(** Sender-side clock skew: every message {e sent} by the site is late by
    the skew (a slow timer at the sender). *)
val set_skew : t -> int -> float -> unit

val skew : t -> int -> float

(** {1 Per-copy identities and targeted omission}

    Every physical copy carries the identity [(src, dst, seq)], where
    [seq] is a per-ordered-pair counter assigned at send time (batch
    copies in target-array order, duplicated copies each their own seq).
    Runs that agree on a prefix assign identical identities, so a fault
    planner can name a specific delivery across divergent executions. *)

(** Suppress the copy with the given identity at delivery time — after
    its loss and latency draws have been consumed, so denial never
    perturbs the random streams of the surrounding run.  The copy counts
    as dropped.  Idempotent.  Raises [Invalid_argument] on a bad site or
    negative [seq]. *)
val deny : t -> src:int -> dst:int -> seq:int -> unit

(** Clear all denials. *)
val allow_all : t -> unit

(** Number of identities currently denied. *)
val denied_count : t -> int

(** The identity of the copy whose [deliver] callback is currently
    running, or [None] outside a delivery.  Lets instrumented receivers
    cite the copy that triggered them. *)
val delivering : t -> (int * int * int) option

(** The textual form ["src>dst#seq"] of a copy identity, as lineage
    instants carry it. *)
val copy_key : src:int -> dst:int -> seq:int -> string

(** Parse {!copy_key}'s form back: the integers before ['>'], between
    it and the first ['#'], and after; [None] when any fails to parse. *)
val copy_key_of_string : string -> (int * int * int) option

(** [send t ~src ~dst deliver] schedules [deliver] after the drawn latency
    unless the message is lost. *)
val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

(** [send_batch t ~src targets] sends one message per [(dst, deliver)]
    pair, all riding a single physical transfer: one latency draw and one
    scheduled engine event for the whole batch, with loss and
    reachability still judged per copy at delivery time.  The fan-out
    fast path for gossip.  Duplication does not apply to batches.  The
    array is owned by the network after the call. *)
val send_batch : t -> src:int -> (int * (unit -> unit)) array -> unit
