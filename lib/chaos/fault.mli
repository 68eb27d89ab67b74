(** The fault vocabulary: first-class, serializable fault actions with a
    single application code path.

    Every fault anyone injects — a nemesis schedule, a replayed trace,
    an experiment's hand-placed partition — goes through {!apply}, so
    record/replay and shrinking operate on exactly what ran. *)

type action =
  | Crash of int
  | Recover of int
  | Wipe of int  (** stable-storage loss: the site's log evaporates *)
  | Partition of int list list
  | Heal
  | Drop of float  (** message loss probability from now on *)
  | Duplicate of float  (** message duplication probability from now on *)
  | Delay of float  (** uniform extra per-message delay bound *)
  | Skew of int * float  (** sender-side clock skew of one site *)
  | Omit of int * int * int
      (** omit one physical delivery, named [(src, dst, seq)] by its
          send-time per-pair sequence number — the LDFI drop fault *)

type event = { at : float; action : action }

val pp_action : action Fmt.t
val pp_event : event Fmt.t
val equal_action : action -> action -> bool
val equal_event : event -> event -> bool

(** Apply one action to the live system.  [Wipe] needs the [replica]
    (it is a no-op without one); everything else acts on the network. *)
val apply : ?replica:Relax_replica.Replica.t -> Relax_sim.Network.t -> action -> unit

(** Schedule a whole fault schedule on the engine; events at or before
    the current clock are applied immediately. *)
val install :
  ?replica:Relax_replica.Replica.t ->
  Relax_sim.Engine.t ->
  Relax_sim.Network.t ->
  event list ->
  unit

(** The up/partitioned view a nemesis consults when deciding its next
    move, maintained standalone during offline schedule generation. *)
module Shadow : sig
  type t

  val create : sites:int -> t
  val sites : t -> int
  val is_up : t -> int -> bool
  val up_count : t -> int
  val down_sites : t -> int list
  val partitioned : t -> bool
  val apply : t -> action -> unit
end

(** {1 Serialization} *)

val action_to_sexp : action -> Sexp.t

(** Raises {!Sexp.Parse_error} on malformed input. *)
val action_of_sexp : Sexp.t -> action

val event_to_sexp : event -> Sexp.t
val event_of_sexp : Sexp.t -> event
