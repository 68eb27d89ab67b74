(** Composable, seedable nemesis combinators.

    A nemesis decides, at each decision tick of {!generate}, which
    {!Fault.action}s to inject next, drawing from its own RNG stream and
    consulting a {!Fault.Shadow.t} of the system (which it also updates,
    so several nemeses composing in one round see each other's effects).

    Combinators with memory (toggling windows, rejoin countdowns) keep
    state in closures — construct a fresh nemesis per run. *)

type t

val name : t -> string

(** {1 Combinators} *)

(** Site crash/recover churn, logs intact: each up site crashes with
    [crash_p], each down site recovers with [recover_p]; at least
    [min_up] sites are kept up. *)
val crash_recover :
  ?crash_p:float -> ?recover_p:float -> ?min_up:int -> unit -> t

(** Like {!crash_recover}, but every crash also wipes the site's stable
    storage — deliberately violating the model's assumption. *)
val amnesia : ?crash_p:float -> ?recover_p:float -> ?min_up:int -> unit -> t

(** A site crashes and stays down for [down_ticks] decision ticks before
    rejoining with its stale (but intact) log. *)
val stale_rejoin :
  ?crash_p:float -> ?down_ticks:int -> ?min_up:int -> unit -> t

(** Random bipartition with [split_p] when connected; heal with
    [heal_p] when split. *)
val split_brain : ?split_p:float -> ?heal_p:float -> unit -> t

(** Message-loss windows: turn loss [p] on with [on_p], off with
    [off_p]. *)
val message_drop : ?p:float -> ?on_p:float -> ?off_p:float -> unit -> t

(** Message-duplication windows. *)
val message_dup : ?p:float -> ?on_p:float -> ?off_p:float -> unit -> t

(** Latency-burst windows adding up to [extra] per message (drives
    reordering). *)
val message_delay : ?extra:float -> ?on_p:float -> ?off_p:float -> unit -> t

(** With [p] per tick, toggle one random site between a fresh skew in
    [[0, max_skew)] and none. *)
val clock_skew : ?max_skew:float -> ?p:float -> unit -> t

(** {1 The named catalog (CLI surface)} *)

(** [(name, one-line description)] for every nemesis {!of_string}
    accepts. *)
val known : (string * string) list

(** A fresh default-parameter nemesis by catalog name. *)
val of_string : string -> (t, string) result

(** All-or-nothing {!of_string} over a list, preserving order. *)
val of_names : string list -> (t list, string) result

(** {1 Offline schedule generation} *)

(** [generate nemeses ~rng ~sites ~horizon ~tick] steps every nemesis
    (each on its own stream split off [rng] in list order) against a
    fresh shadow at times [tick, 2·tick, … < horizon] and returns the
    resulting timed fault schedule. *)
val generate :
  t list ->
  rng:Relax_sim.Rng.t ->
  sites:int ->
  horizon:float ->
  tick:float ->
  Fault.event list
