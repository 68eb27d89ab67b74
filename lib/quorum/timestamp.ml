(* Lamport logical-clock timestamps (Section 3.1; Lamport 78).  Entries in
   replicated logs are ordered by (time, site), which is a total order when
   each site tags entries with its own identifier. *)

type t = { time : int; site : int }

let make ~time ~site =
  if time < 0 || site < 0 then invalid_arg "Timestamp.make";
  { time; site }

let zero = { time = 0; site = 0 }
let time t = t.time
let site t = t.site

let compare a b =
  let c = Int.compare a.time b.time in
  if c <> 0 then c else Int.compare a.site b.site

let equal a b = compare a b = 0

(* The successor timestamp a site generates after observing [t]. *)
let tick t ~site = { time = t.time + 1; site }

(* Clock synchronisation on message receipt. *)
let merge a b = if compare a b >= 0 then a else b

(* "time:site", the site zero-padded to two digits (as "%d:%02d"),
   rendered without Format for the lineage keys. *)
let to_string t =
  let site = string_of_int t.site in
  string_of_int t.time ^ (if t.site >= 0 && t.site < 10 then ":0" else ":") ^ site

let pp ppf t = Fmt.string ppf (to_string t)
