(** Typed counters, raw float series, and fixed-bucket histograms in a
    named registry.

    Histograms aggregate in bounded memory: their buckets are fixed at
    creation, so registries recorded on different domains merge
    exactly. *)

type t

val create : unit -> t

(** {1 Counters} *)

(** The named counter's cell, created at zero on first use. *)
val counter : t -> string -> int ref

val incr : ?by:int -> t -> string -> unit
val count : t -> string -> int

(** {1 Series}

    Raw observation lists: lossless, for experiment-scale data where
    exact quantiles matter. *)

val observe : t -> string -> float -> unit

(** Observations in insertion order. *)
val observations : t -> string -> float list

(** [None] when the series is empty. *)
val mean : t -> string -> float option

(** Nearest-rank quantile of the named series, [q] in [\[0, 1\]]:
    the smallest observation [x] such that at least [ceil (q * n)]
    observations are [<= x] ([q = 0] returns the minimum).  [None] when
    the series is empty; raises [Invalid_argument] when [q] is outside
    [\[0, 1\]] or NaN. *)
val quantile : t -> string -> float -> float option

(** {1 Histograms} *)

module Histogram : sig
  type h

  (** [bounds] (default {!val:default_bounds}) are the buckets'
      inclusive upper bounds, strictly increasing; an implicit overflow
      bucket catches everything above the last bound.  Raises
      [Invalid_argument] on an empty or non-increasing bound array. *)
  val create : ?bounds:float array -> unit -> h

  val observe : h -> float -> unit
  val count : h -> int
  val sum : h -> float
  val bounds : h -> float array

  (** Per-bucket observation counts; length is [Array.length bounds + 1],
      the final cell being the overflow bucket. *)
  val bucket_counts : h -> int array

  (** Nearest-rank quantile estimated from the buckets: the upper bound
      of the bucket holding the target rank (the exact maximum observed
      for the overflow bucket).  [None] on an empty histogram. *)
  val quantile : h -> float -> float option

  (** Merge [src] into [dst]; the bound arrays must be identical. *)
  val merge_into : dst:h -> h -> unit
end

(** Default bounds: a 1-2-5 ladder from 0.5 to 5000 (abstract ms). *)
val default_bounds : float array

(** The named histogram, created on first use ([bounds] applies only to
    the creating call). *)
val histogram : ?bounds:float array -> t -> string -> Histogram.h

(** {1 Registry-level operations} *)

val counter_names : t -> string list
val series_names : t -> string list
val histogram_names : t -> string list

(** Merge [src] into [dst]: counters add, series concatenate (dst's
    observations first), histograms merge bucketwise.  The domain-pool
    merge: give each domain its own registry and fold them. *)
val merge_into : dst:t -> t -> unit

val pp : t Fmt.t
