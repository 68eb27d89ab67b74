(* Shared vocabulary of the workloads: the run configuration, metrics,
   and what one timed unit reports. *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny sizes, for the benchmark's own tests *)
}

(* A per-layer metric carries the end-to-end metric it should move. *)
type metric = { name : string; unit_ : string; value : float; moves : string }

let metric ?(moves = "") name unit_ value = { name; unit_; value; moves }

type sample = {
  wall : float;  (** seconds of the whole unit *)
  phases : (string * float) list;
      (** seconds of each end-to-end phase; the unit's root spans carry
          these names *)
  named : metric list;  (** the workload's end-to-end metrics *)
  counters : (string * string) list;
      (** deterministic work counters: must repeat exactly across units *)
  attempted : int;
  failed : int;
  problems : string list;  (** one line per gate failure *)
  layers : metric list;  (** per-layer metrics; filled by traced units *)
}

type gate = { g_attempted : int; g_failed : int; g_problems : string list }

let no_gate = { g_attempted = 0; g_failed = 0; g_problems = [] }

(* One workload: [setup] is timed, several times, and returns the timed
   unit and the untimed correctness gate. *)
type instance = { run : traced:bool -> sample; gate : unit -> gate }
type workload = { name : string; setup : cfg -> instance }

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted and n = List.length sorted in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation quantile, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* The value a run reports for a repeated measurement: the contended
   quartile — the upper quartile of times, the lower quartile of rates
   (units ending in "/s").  Unit times on a shared host are bimodal: a
   common contended mode and bursts of a faster one while co-tenants
   idle.  The median flips between the modes when the bursts cover about
   half a run; the contended quartile stays in the common mode. *)
let typical ~unit_ xs =
  if String.ends_with ~suffix:"/s" unit_ then quantile 0.25 xs
  else if unit_ = "s" then quantile 0.75 xs
  else median xs

let sum = List.fold_left ( +. ) 0.0

let fi = float_of_int
