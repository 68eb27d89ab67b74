(* Named counters, raw series and fixed-bucket histograms.

   Quantile is true nearest-rank, with the boundary cases (q = 0,
   q = 1, single observation, NaN) pinned down by tests.  Histograms
   are bounded-memory: bucket bounds are fixed at creation, so two
   histograms recorded on different domains merge without loss. *)

type series = { mutable values : float list; mutable n : int }

let default_bounds =
  [| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0;
     2000.0; 5000.0 |]

module Histogram = struct
  type h = {
    bounds : float array; (* inclusive upper bounds, strictly increasing *)
    counts : int array; (* length = Array.length bounds + 1 (overflow) *)
    mutable total : int;
    mutable sum : float;
    mutable max_seen : float;
  }

  let create ?bounds:(b = default_bounds) () =
    if Array.length b = 0 then invalid_arg "Histogram.create: no bounds";
    Array.iteri
      (fun i v ->
        if i > 0 && v <= b.(i - 1) then
          invalid_arg "Histogram.create: bounds must be strictly increasing")
      b;
    {
      bounds = Array.copy b;
      counts = Array.make (Array.length b + 1) 0;
      total = 0;
      sum = 0.0;
      max_seen = neg_infinity;
    }

  let bucket_of h v =
    (* first bucket whose upper bound is >= v; overflow otherwise *)
    let n = Array.length h.bounds in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if v <= h.bounds.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 n

  let observe h v =
    let i = bucket_of h v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. v;
    if v > h.max_seen then h.max_seen <- v

  let count h = h.total
  let sum h = h.sum
  let bounds h = Array.copy h.bounds
  let bucket_counts h = Array.copy h.counts

  let quantile h q =
    if Float.is_nan q || q < 0.0 || q > 1.0 then
      invalid_arg "Histogram.quantile";
    if h.total = 0 then None
    else
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
      let n = Array.length h.bounds in
      let rec go i seen =
        if i >= n then Some h.max_seen
        else
          let seen = seen + h.counts.(i) in
          if seen >= rank then Some h.bounds.(i) else go (i + 1) seen
      in
      go 0 0

  let merge_into ~dst src =
    if dst.bounds <> src.bounds then
      invalid_arg "Histogram.merge_into: bound mismatch";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.total <- dst.total + src.total;
    dst.sum <- dst.sum +. src.sum;
    if src.max_seen > dst.max_seen then dst.max_seen <- src.max_seen
end

type t = {
  counters : (string, int ref) Hashtbl.t;
  serieses : (string, series) Hashtbl.t;
  histograms : (string, Histogram.h) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    serieses = Hashtbl.create 16;
    histograms = Hashtbl.create 8;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

let count t name = !(counter t name)

let series t name =
  match Hashtbl.find_opt t.serieses name with
  | Some s -> s
  | None ->
    let s = { values = []; n = 0 } in
    Hashtbl.add t.serieses name s;
    s

let observe t name v =
  let s = series t name in
  s.values <- v :: s.values;
  s.n <- s.n + 1

let observations t name = List.rev (series t name).values

let mean t name =
  let s = series t name in
  if s.n = 0 then None
  else Some (List.fold_left ( +. ) 0.0 s.values /. float_of_int s.n)

(* Nearest-rank: the ceil(q*n)-th smallest observation (1-based), the
   minimum for q = 0.  NaN and out-of-range q are programmer errors. *)
let quantile t name q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile";
  let s = series t name in
  if s.n = 0 then None
  else
    let sorted = List.sort Float.compare s.values in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.n))) in
    Some (List.nth sorted (rank - 1))

let histogram ?(bounds = default_bounds) t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create ~bounds () in
    Hashtbl.add t.histograms name h;
    h

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let counter_names t = sorted_keys t.counters
let series_names t = sorted_keys t.serieses
let histogram_names t = sorted_keys t.histograms

let merge_into ~dst src =
  Hashtbl.iter (fun name r -> incr ~by:!r dst name) src.counters;
  Hashtbl.iter
    (fun name (s : series) ->
      let d = series dst name in
      d.values <- s.values @ d.values;
      d.n <- d.n + s.n)
    src.serieses;
  Hashtbl.iter
    (fun name h ->
      let d = histogram ~bounds:(Histogram.bounds h) dst name in
      Histogram.merge_into ~dst:d h)
    src.histograms

let pp ppf t =
  List.iter
    (fun name -> Fmt.pf ppf "%-32s %d@\n" name (count t name))
    (counter_names t);
  List.iter
    (fun name ->
      match (mean t name, quantile t name 0.5, quantile t name 0.99) with
      | Some m, Some p50, Some p99 ->
        Fmt.pf ppf "%-32s n=%d mean=%.3f p50=%.3f p99=%.3f@\n" name
          (series t name).n m p50 p99
      | _ -> ())
    (series_names t);
  List.iter
    (fun name ->
      let h = histogram t name in
      match
        (Histogram.quantile h 0.5, Histogram.quantile h 0.99)
      with
      | Some p50, Some p99 ->
        Fmt.pf ppf "%-32s n=%d sum=%.3f p50<=%.3f p99<=%.3f@\n" name
          (Histogram.count h) (Histogram.sum h) p50 p99
      | _ -> ())
    (histogram_names t)
