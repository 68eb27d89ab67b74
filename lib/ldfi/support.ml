(* Lineage extraction: from the flat event list of a traced chaos run to
   the support graph of its success.

   The instrumented layers emit everything we need as instants:

   - [chaos/op-window]   the runner, once per workload slot (index, start)
   - [chaos/quiesce]     the runner, when the final drain begins
   - [replica/op]        an operation starting (op id, client site)
   - [replica/reply]     a phase-1 reply counted toward the view, with
                         the identities of the request and reply copies
   - [replica/ack]       a phase-2 ack counted toward the final quorum,
                         with the update and ack copy identities
   - [replica/entry]     the tentative entry an attempt wrote
   - [replica/absorb]    an entry becoming present at a site, with the
                         copy that carried it
   - [replica/complete]  the operation completing (with its attempt)

   Operations are identified across runs by their *workload slot* (the
   runner drives the seeded workload serially, one slot per operation),
   never by log timestamps or op ids, which may differ once faults are
   injected.  The support of a completed operation is the quorum bundle
   of its completing attempt; the durability support of its entry is the
   set of sites currently holding a copy, each with the delivery that
   put it there. *)

module Tracer = Relax_obs.Tracer
module Attr = Relax_obs.Attr

(* The identity of one physical message copy: (src, dst, per-pair seq),
   assigned at send time by Relax_sim.Network. *)
type dkey = { src : int; dst : int; seq : int }

let compare_dkey a b =
  match compare a.src b.src with
  | 0 -> ( match compare a.dst b.dst with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

let dkey_to_string k = Relax_sim.Network.copy_key ~src:k.src ~dst:k.dst ~seq:k.seq

let dkey_of_string s =
  Option.map
    (fun (src, dst, seq) -> { src; dst; seq })
    (Relax_sim.Network.copy_key_of_string s)

(* One counted quorum member: the site, the message copies its
   contribution rode on (request+reply, or update+ack), and the carrier
   bundles of any duplicated deliveries that would have made the same
   contribution — a dropped counted copy is masked by a surviving
   dup. *)
type member = { site : int; carry : dkey list; alts : dkey list list }

(* The support of one completed operation. *)
type op_support = {
  slot : int; (* workload slot the op ran in *)
  client : int; (* the client's attached site *)
  attempt : int; (* the attempt that completed *)
  replies : member list; (* phase-1 members counted toward the view *)
  acks : member list; (* phase-2 members counted toward completion *)
}

(* One copy of a completed op's entry: where it lives, the delivery that
   put it there, and since which slot.  [from_slot = nslots] means the
   copy appeared during the post-quiescence drain. *)
type placement = { site : int; via : dkey option; from_slot : int }

type t = {
  nslots : int;
  slot_starts : float array; (* engine start time of each slot *)
  quiesce : float; (* start of the final drain *)
  completed : op_support list; (* in completion order *)
  durable : (int * placement list) list; (* writing op's slot -> copies *)
}

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let attr name attrs = List.assoc_opt name attrs

let attr_int name attrs =
  match attr name attrs with Some (Attr.Int n) -> Some n | _ -> None

let attr_float name attrs =
  match attr name attrs with Some (Attr.Float f) -> Some f | _ -> None

let attr_str name attrs =
  match attr name attrs with Some (Attr.Str s) -> Some s | _ -> None

let attr_key name attrs = Option.bind (attr_str name attrs) dkey_of_string

(* Mutable per-op accumulator keyed by the run's op id. *)
type op_acc = {
  mutable o_slot : int;
  mutable o_client : int;
  mutable o_replies : (int * member) list; (* attempt, member — reversed *)
  mutable o_acks : (int * member) list;
  (* duplicate deliveries re-making a counted contribution:
     (attempt, site, alternative carry) — reversed *)
  mutable o_reply_dups : (int * int * dkey list) list;
  mutable o_ack_dups : (int * int * dkey list) list;
  mutable o_entries : (int * string) list; (* attempt, entry key *)
  mutable o_done : int option; (* completing attempt *)
}

let of_events (events : Tracer.event list) =
  let ops : (int, op_acc) Hashtbl.t = Hashtbl.create 64 in
  let op_order = ref [] in
  let slots = ref [] (* (index, at), reversed *)
  and quiesce = ref None
  and cur_slot = ref (-1)
  and absorbs = ref [] (* (entry key, placement w/o slot, at), reversed *) in
  let get_op id =
    match Hashtbl.find_opt ops id with
    | Some a -> a
    | None ->
      let a =
        {
          o_slot = !cur_slot;
          o_client = -1;
          o_replies = [];
          o_acks = [];
          o_reply_dups = [];
          o_ack_dups = [];
          o_entries = [];
          o_done = None;
        }
      in
      Hashtbl.add ops id a;
      op_order := id :: !op_order;
      a
  in
  List.iter
    (fun (e : Tracer.event) ->
      if e.kind = Tracer.Instant then
        match e.name with
        | "chaos/op-window" -> (
          match (attr_int "index" e.attrs, attr_float "at" e.attrs) with
          | Some i, Some at ->
            cur_slot := i;
            slots := (i, at) :: !slots
          | _ -> ())
        | "chaos/quiesce" -> quiesce := attr_float "at" e.attrs
        | "replica/op" -> (
          match attr_int "op" e.attrs with
          | None -> ()
          | Some id ->
            let a = get_op id in
            a.o_slot <- !cur_slot;
            Option.iter (fun s -> a.o_client <- s) (attr_int "site" e.attrs))
        | "replica/reply" -> (
          match
            ( attr_int "op" e.attrs,
              attr_int "attempt" e.attrs,
              attr_int "site" e.attrs )
          with
          | Some id, Some k, Some site ->
            let carry =
              List.filter_map Fun.id
                [ attr_key "req" e.attrs; attr_key "rep" e.attrs ]
            in
            let a = get_op id in
            a.o_replies <- (k, { site; carry; alts = [] }) :: a.o_replies
          | _ -> ())
        | "replica/reply-dup" -> (
          match
            ( attr_int "op" e.attrs,
              attr_int "attempt" e.attrs,
              attr_int "site" e.attrs )
          with
          | Some id, Some k, Some site ->
            let carry =
              List.filter_map Fun.id
                [ attr_key "req" e.attrs; attr_key "rep" e.attrs ]
            in
            let a = get_op id in
            a.o_reply_dups <- (k, site, carry) :: a.o_reply_dups
          | _ -> ())
        | "replica/ack" -> (
          match
            ( attr_int "op" e.attrs,
              attr_int "attempt" e.attrs,
              attr_int "site" e.attrs )
          with
          | Some id, Some k, Some site ->
            let carry =
              List.filter_map Fun.id
                [ attr_key "upd" e.attrs; attr_key "ack" e.attrs ]
            in
            let a = get_op id in
            a.o_acks <- (k, { site; carry; alts = [] }) :: a.o_acks
          | _ -> ())
        | "replica/ack-dup" -> (
          match
            ( attr_int "op" e.attrs,
              attr_int "attempt" e.attrs,
              attr_int "site" e.attrs )
          with
          | Some id, Some k, Some site ->
            let carry =
              List.filter_map Fun.id
                [ attr_key "upd" e.attrs; attr_key "ack" e.attrs ]
            in
            let a = get_op id in
            a.o_ack_dups <- (k, site, carry) :: a.o_ack_dups
          | _ -> ())
        | "replica/entry" -> (
          match
            ( attr_int "op" e.attrs,
              attr_int "attempt" e.attrs,
              attr_str "entry" e.attrs )
          with
          | Some id, Some k, Some key ->
            let a = get_op id in
            a.o_entries <- (k, key) :: a.o_entries
          | _ -> ())
        | "replica/absorb" -> (
          match
            ( attr_int "site" e.attrs,
              attr_str "entry" e.attrs,
              attr_float "at" e.attrs )
          with
          | Some site, Some key, Some at ->
            absorbs := (key, site, attr_key "via" e.attrs, at) :: !absorbs
          | _ -> ())
        | "replica/complete" -> (
          match (attr_int "op" e.attrs, attr_int "attempt" e.attrs) with
          | Some id, Some k -> (get_op id).o_done <- Some k
          | _ -> ())
        | _ -> ())
    events;
  let slot_list = List.rev !slots in
  let nslots = List.length slot_list in
  let slot_starts = Array.make (max nslots 1) 0.0 in
  List.iter (fun (i, at) -> if i < nslots then slot_starts.(i) <- at) slot_list;
  let quiesce =
    match !quiesce with
    | Some q -> q
    | None -> if nslots = 0 then 0.0 else slot_starts.(nslots - 1)
  in
  (* Which slot was running at engine time [at]?  [nslots] when past the
     quiescence point — nothing fault-scheduled can touch it. *)
  let slot_of at =
    if at >= quiesce then nslots
    else begin
      let s = ref 0 in
      for i = 0 to nslots - 1 do
        if slot_starts.(i) <= at then s := i
      done;
      !s
    end
  in
  let completed =
    List.filter_map
      (fun id ->
        let a = Hashtbl.find ops id in
        match a.o_done with
        | None -> None
        | Some k ->
          let keep l dups =
            List.rev_map
              (fun (_, (m : member)) ->
                (* duplicated deliveries re-making this member's
                   contribution: alternative carrier bundles a drop
                   clause must also cut *)
                let alts =
                  List.rev
                    (List.filter_map
                       (fun (k', site, carry) ->
                         if k' = k && site = m.site && carry <> [] then
                           Some carry
                         else None)
                       dups)
                in
                { m with alts })
              (List.filter (fun (k', _) -> k' = k) l)
          in
          Some
            {
              slot = a.o_slot;
              client = a.o_client;
              attempt = k;
              replies = keep a.o_replies a.o_reply_dups;
              acks = keep a.o_acks a.o_ack_dups;
            })
      (List.rev !op_order)
  in
  let absorbs = List.rev !absorbs in
  let durable =
    List.filter_map
      (fun id ->
        let a = Hashtbl.find ops id in
        match a.o_done with
        | None -> None
        | Some k -> (
          match List.assoc_opt k a.o_entries with
          | None -> None
          | Some entry_key ->
            let copies =
              List.filter_map
                (fun (key, site, via, at) ->
                  if String.equal key entry_key then
                    Some { site; via; from_slot = slot_of at }
                  else None)
                absorbs
            in
            (* A site may absorb the same entry twice (wipe then re-gossip,
               under injected faults).  Only the last arrival supports the
               copy's current existence. *)
            let copies =
              List.fold_left
                (fun acc p ->
                  p :: List.filter (fun q -> q.site <> p.site) acc)
                [] copies
              |> List.sort (fun a b -> compare a.site b.site)
            in
            if copies = [] then None else Some (a.o_slot, copies)))
      (List.rev !op_order)
  in
  { nslots; slot_starts; quiesce; completed; durable }

let pp ppf t =
  Fmt.pf ppf "@[<v>slots %d, quiesce %.1f@," t.nslots t.quiesce;
  List.iter
    (fun o ->
      Fmt.pf ppf "op@slot %d (client %d, attempt %d): replies [%a] acks [%a]@,"
        o.slot o.client o.attempt
        Fmt.(list ~sep:(any " ") int)
        (List.map (fun (m : member) -> m.site) o.replies)
        Fmt.(list ~sep:(any " ") int)
        (List.map (fun (m : member) -> m.site) o.acks))
    t.completed;
  List.iter
    (fun (slot, copies) ->
      Fmt.pf ppf "entry@slot %d held by [%a]@," slot
        Fmt.(list ~sep:(any " ") int)
        (List.map (fun (p : placement) -> p.site) copies))
    t.durable;
  Fmt.pf ppf "@]"
