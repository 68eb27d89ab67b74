open Relax_core

(* Replicated-object logs (Section 3.1): a log is a set of timestamped
   operation entries, ordered by timestamp.  A replicated object's
   current value is reconstructed by merging the logs of a quorum of sites
   in timestamp order, discarding duplicates.

   The set is a balanced tree keyed by (timestamp, operation), so an
   insert, a membership test or a removal costs O(log n) and a merge of
   two logs is a set union rather than one ordered insert per entry. *)

type entry = { ts : Timestamp.t; op : Op.t }

let entry ~ts op = { ts; op }
let entry_ts e = e.ts
let entry_op e = e.op

let compare_entry a b =
  let c = Timestamp.compare a.ts b.ts in
  if c <> 0 then c else Op.compare a.op b.op

let equal_entry a b = compare_entry a b = 0

module S = Set.Make (struct
  type t = entry

  let compare = compare_entry
end)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let length = S.cardinal
let entries = S.elements
let insert l e = S.add e l
let of_entries = S.of_list

(* Merge discards duplicate entries: the same timestamped operation
   recorded at several sites is one event. *)
let merge = S.union
let mem l e = S.mem e l
let remove l e = S.remove e l

(* The history a log denotes: its operations in timestamp order. *)
let to_history (l : t) : History.t = List.map entry_op (S.elements l)

(* The largest timestamp present, used by sites to advance their clocks.
   Entries are ordered by timestamp first, so it is the last entry's. *)
let max_ts l =
  match S.max_elt_opt l with None -> Timestamp.zero | Some e -> e.ts

let filter = S.filter

(* Split into the entries at or before the watermark and the rest;
   both sides stay sorted. *)
let split_at_watermark (l : t) ts =
  List.partition (fun e -> Timestamp.compare e.ts ts <= 0) (S.elements l)

(* Checkpointing (log compaction): replace the prefix at or before
   [watermark] with synthetic entries reconstructing its effect.  The
   synthetic operations are supplied by the caller (they are
   domain-specific: re-enqueues for a queue, one credit for an account)
   and are stamped with small timestamps at site 0, which cannot collide
   with the surviving suffix (everything there is beyond the watermark)
   nor with removed entries (they are gone from every log that applies
   the same checkpoint).  Lamport time grows by at least one per
   operation, so the prefix's max time bounds the number of synthetic
   entries; violating that invariant raises. *)
let compact (l : t) ~watermark ~summary =
  let prefix, rest = split_at_watermark l watermark in
  if prefix = [] then l
  else begin
    if List.length summary > Timestamp.time watermark then
      invalid_arg "Log.compact: summary longer than the time budget";
    let synthetic =
      List.mapi
        (fun i op -> { ts = Timestamp.make ~time:(i + 1) ~site:0; op })
        summary
    in
    of_entries (synthetic @ rest)
  end

let pp_entry ppf e = Fmt.pf ppf "%a %a" Timestamp.pp e.ts Op.pp e.op

let pp ppf l =
  if S.is_empty l then Fmt.string ppf "<empty log>"
  else Fmt.list ~sep:(Fmt.any "@\n") pp_entry ppf (S.elements l)

let equal = S.equal
