(* The fault-injecting network model.

   Sites are numbered 0..n-1.  Messages are closures delivered after a
   randomized latency, subject to loss; delivery is suppressed when the
   destination is crashed or the two endpoints are in different partition
   cells *at delivery time* — matching the packet-radio intuition of the
   taxi example, where a message sent before a partition may still be lost
   to it.

   Beyond the static construction parameters, every fault knob is
   runtime-tunable so a chaos schedule can turn faults on and off
   mid-run: the loss probability, a duplication probability (the message
   is delivered twice, each copy with its own latency), a uniform extra
   delay bound, and a per-site clock skew (messages *sent* by a skewed
   site are late by the skew, modelling a slow timer at the sender).

   Every physical copy additionally carries a deterministic identity
   [(src, dst, seq)] where [seq] is a per-ordered-pair counter assigned
   at send time.  Two runs that agree on their prefix assign identical
   identities, which is what lets lineage-driven fault injection name "the
   3rd message from site 1 to site 4" across divergent executions.  A
   denied identity is suppressed at delivery time — after the loss and
   latency draws have been consumed — so targeted omission never perturbs
   the random streams of the surrounding run. *)

type t = {
  engine : Engine.t;
  n : int;
  rng : Rng.t;
  up : bool array;
  mutable n_up : int; (* maintained count of up sites — no O(n) scans *)
  cell : int array; (* partition cell of each site *)
  mean_latency : float;
  mutable drop_probability : float;
  mutable dup_probability : float;
  mutable extra_delay : float; (* per-message uniform extra in [0, extra] *)
  skew : float array; (* sender-side clock skew per site *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  seq : int array; (* per ordered pair (src,dst): next copy sequence number *)
  denied : (int * int * int, unit) Hashtbl.t; (* identities to omit *)
  mutable deny_count : int; (* = Hashtbl.length denied, O(1) fast path *)
  (* identity of the copy currently being delivered; src = -1 outside a
     delivery callback.  Plain ints so the hot path allocates nothing. *)
  mutable delivering_src : int;
  mutable delivering_dst : int;
  mutable delivering_seq : int;
}

let create ?(mean_latency = 5.0) ?(drop_probability = 0.0) engine ~sites =
  if sites <= 0 then invalid_arg "Network.create: sites must be positive";
  if drop_probability < 0.0 || drop_probability > 1.0 then
    invalid_arg "Network.create: drop_probability out of range";
  {
    engine;
    n = sites;
    rng = Rng.split (Engine.rng engine);
    up = Array.make sites true;
    n_up = sites;
    cell = Array.make sites 0;
    mean_latency;
    drop_probability;
    dup_probability = 0.0;
    extra_delay = 0.0;
    skew = Array.make sites 0.0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    seq = Array.make (sites * sites) 0;
    denied = Hashtbl.create 7;
    deny_count = 0;
    delivering_src = -1;
    delivering_dst = -1;
    delivering_seq = -1;
  }

let sites t = t.n
let is_up t s = t.up.(s)
let up_sites t = List.filter (fun s -> t.up.(s)) (List.init t.n Fun.id)
let up_count t = t.n_up

let check_site t name s =
  if s < 0 || s >= t.n then invalid_arg ("Network." ^ name ^ ": bad site")

(* Both mutators are idempotent so the maintained up-count cannot drift
   when a chaos schedule crashes an already-crashed site. *)
let crash t s =
  check_site t "crash" s;
  if t.up.(s) then begin
    t.up.(s) <- false;
    t.n_up <- t.n_up - 1
  end

let recover t s =
  check_site t "recover" s;
  if not t.up.(s) then begin
    t.up.(s) <- true;
    t.n_up <- t.n_up + 1
  end

(* Partition the network into the given cells; unassigned sites go to cell
   0.  [heal] restores full connectivity. *)
let partition t cells =
  Array.fill t.cell 0 t.n 0;
  List.iteri
    (fun cell_id members ->
      List.iter
        (fun s ->
          if s < 0 || s >= t.n then invalid_arg "Network.partition: bad site";
          t.cell.(s) <- cell_id + 1)
        members)
    cells

let heal t = Array.fill t.cell 0 t.n 0
let partitioned t = Array.exists (fun c -> c <> 0) t.cell

let connected t a b = t.cell.(a) = t.cell.(b)

(* Can [src] currently reach [dst]?  Used by clients to select quorums. *)
let reachable t ~src ~dst =
  t.up.(src) && t.up.(dst) && connected t src dst

let stats t = (t.sent, t.delivered, t.dropped)
let duplicated t = t.duplicated

(* Runtime fault knobs (the chaos schedule's Set_* actions). *)
let check_probability name p =
  if p < 0.0 || p > 1.0 then invalid_arg ("Network." ^ name ^ ": out of range")

let set_drop_probability t p =
  check_probability "set_drop_probability" p;
  t.drop_probability <- p

let drop_probability t = t.drop_probability

let set_dup_probability t p =
  check_probability "set_dup_probability" p;
  t.dup_probability <- p

let dup_probability t = t.dup_probability

let set_extra_delay t d =
  if d < 0.0 then invalid_arg "Network.set_extra_delay: negative";
  t.extra_delay <- d

let extra_delay t = t.extra_delay

let set_skew t s d =
  check_site t "set_skew" s;
  if d < 0.0 then invalid_arg "Network.set_skew: negative";
  t.skew.(s) <- d

let skew t s = t.skew.(s)

(* Per-copy identities and targeted omission. *)
let next_seq t ~src ~dst =
  let i = (src * t.n) + dst in
  let s = t.seq.(i) in
  t.seq.(i) <- s + 1;
  s

let deny t ~src ~dst ~seq =
  check_site t "deny" src;
  check_site t "deny" dst;
  if seq < 0 then invalid_arg "Network.deny: negative seq";
  if not (Hashtbl.mem t.denied (src, dst, seq)) then begin
    Hashtbl.add t.denied (src, dst, seq) ();
    t.deny_count <- t.deny_count + 1
  end

let allow_all t =
  Hashtbl.reset t.denied;
  t.deny_count <- 0

let denied_count t = t.deny_count

let is_denied t ~src ~dst ~seq =
  t.deny_count > 0 && Hashtbl.mem t.denied (src, dst, seq)

let delivering t =
  if t.delivering_src < 0 then None
  else Some (t.delivering_src, t.delivering_dst, t.delivering_seq)

(* The textual form of a copy identity, "src>dst#seq": the replica's
   lineage instants write it and the LDFI planner reads it back. *)
let copy_key ~src ~dst ~seq =
  string_of_int src ^ ">" ^ string_of_int dst ^ "#" ^ string_of_int seq

let copy_key_of_string s =
  match String.index_opt s '>' with
  | None -> None
  | Some i -> (
    match String.index_opt s '#' with
    | None -> None
    | Some j when j > i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (j - i - 1)),
          int_of_string_opt (String.sub s (j + 1) (String.length s - j - 1)) )
      with
      | Some src, Some dst, Some seq -> Some (src, dst, seq)
      | _ -> None)
    | Some _ -> None)

(* Latency model: exponential around the configured mean (so bursts of
   reordering occur naturally), plus the tunable uniform extra delay and
   the sender's clock skew. *)
let draw_latency t ~src =
  let base =
    if t.mean_latency <= 0.0 then 0.0
    else Rng.exponential t.rng ~rate:(1.0 /. t.mean_latency)
  in
  let extra =
    if t.extra_delay <= 0.0 then 0.0 else Rng.float t.rng t.extra_delay
  in
  base +. extra +. t.skew.(src)

let engine t = t.engine

module A = Relax_obs.Tracer.Ambient
module Attr = Relax_obs.Attr

let trace_drop t ~src ~dst ~seq reason =
  if A.active () then
    A.instant ~time:(Engine.now t.engine) "net/drop"
      ~attrs:
        [
          Attr.int "src" src;
          Attr.int "dst" dst;
          Attr.int "seq" seq;
          Attr.str "reason" reason;
        ]

(* Deliver one physical copy: honour denial first (the copy "vanishes on
   the wire"), then the usual reachability check.  The identity is
   published through [delivering] for the duration of the callback so
   instrumented receivers can cite which copy triggered them; the
   "net/deliver" instant precedes the callback so consequent trace events
   sort after their cause. *)
let deliver_copy t ~src ~dst ~seq deliver =
  if is_denied t ~src ~dst ~seq then begin
    t.dropped <- t.dropped + 1;
    trace_drop t ~src ~dst ~seq "omitted"
  end
  else if reachable t ~src ~dst then begin
    t.delivered <- t.delivered + 1;
    if A.active () then
      A.instant ~time:(Engine.now t.engine) "net/deliver"
        ~attrs:[ Attr.int "src" src; Attr.int "dst" dst; Attr.int "seq" seq ];
    let psrc = t.delivering_src
    and pdst = t.delivering_dst
    and pseq = t.delivering_seq in
    t.delivering_src <- src;
    t.delivering_dst <- dst;
    t.delivering_seq <- seq;
    deliver ();
    t.delivering_src <- psrc;
    t.delivering_dst <- pdst;
    t.delivering_seq <- pseq
  end
  else begin
    t.dropped <- t.dropped + 1;
    trace_drop t ~src ~dst ~seq "unreachable"
  end

let deliver_after t ~src ~dst ~seq deliver =
  let latency = draw_latency t ~src in
  Engine.schedule t.engine ~delay:latency (fun () ->
      deliver_copy t ~src ~dst ~seq deliver)

(* A duplicated message is two physical copies on the wire, and the loss
   draw applies to each copy independently — the dup copy is not immune
   to loss, and a lost original does not suppress the dup.  (The earlier
   asymmetry — dup drawn only for surviving originals, dup copies never
   subject to the loss draw — made the effective loss probability differ
   between the two copies.)  Stats count physical copies: every copy ends
   up in exactly one of [delivered]/[dropped], so
   delivered + dropped = sent + duplicated once the queue drains.

   Draw order is dup (only when the knob is on), then loss/latency per
   copy, which keeps runs without the duplication fault on byte-identical
   random streams. *)
let send t ~src ~dst deliver =
  t.sent <- t.sent + 1;
  let copies =
    if t.dup_probability > 0.0 && Rng.bool t.rng t.dup_probability then begin
      t.duplicated <- t.duplicated + 1;
      if A.active () then
        A.instant ~time:(Engine.now t.engine) "net/dup"
          ~attrs:[ Attr.int "src" src; Attr.int "dst" dst ];
      2
    end
    else 1
  in
  for _copy = 1 to copies do
    let seq = next_seq t ~src ~dst in
    (* one instant per physical copy, carrying its identity: the trace
       consumer (e.g. the time-travel debugger's pending-copy set) can
       match it against the copy's eventual net/deliver or net/drop *)
    if A.active () then
      A.instant ~time:(Engine.now t.engine) "net/send"
        ~attrs:[ Attr.int "src" src; Attr.int "dst" dst; Attr.int "seq" seq ];
    if Rng.bool t.rng t.drop_probability then begin
      t.dropped <- t.dropped + 1;
      trace_drop t ~src ~dst ~seq "loss"
    end
    else deliver_after t ~src ~dst ~seq deliver
  done

(* Batched delivery: the whole batch rides one physical transfer — a
   single latency draw and a single scheduled engine event — while each
   (dst, deliver) copy is still individually subject to the loss draw and
   the reachability check at delivery time.  This is the gossip/fan-out
   fast path: a replica pushing its log to [k] peers costs one heap
   operation instead of [k].  The duplication fault does not apply to
   batches (one transfer, one arrival).  The [targets] array is owned by
   the network after the call. *)
let send_batch t ~src targets =
  let k = Array.length targets in
  if k > 0 then begin
    t.sent <- t.sent + k;
    (* Sequence numbers are assigned at send time, in target-array order,
       so a batch copy's identity does not depend on when the transfer
       lands.  Each copy gets its own identified send instant (plus the
       batch size, to keep the single-transfer structure visible). *)
    let seqs = Array.map (fun (dst, _) -> next_seq t ~src ~dst) targets in
    if A.active () then
      Array.iteri
        (fun i (dst, _) ->
          A.instant ~time:(Engine.now t.engine) "net/send"
            ~attrs:
              [
                Attr.int "src" src;
                Attr.int "dst" dst;
                Attr.int "seq" seqs.(i);
                Attr.int "batch" k;
              ])
        targets;
    let latency = draw_latency t ~src in
    Engine.schedule t.engine ~delay:latency (fun () ->
        Array.iteri
          (fun i (dst, deliver) ->
            let seq = seqs.(i) in
            if Rng.bool t.rng t.drop_probability then begin
              t.dropped <- t.dropped + 1;
              trace_drop t ~src ~dst ~seq "loss"
            end
            else deliver_copy t ~src ~dst ~seq deliver)
          targets)
  end
