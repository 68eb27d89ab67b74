open Relax_core
open Relax_quorum

(* The quorum-consensus replica runtime (Section 3.1, executed for real).

   Each site holds a log of timestamped entries and a Lamport clock.  A
   client executes an operation in the paper's three steps:

     1. broadcast read requests; when logs from an initial quorum of sites
        have arrived, merge them into a view;
     2. choose a response consistent with the view (via a domain-supplied
        response chooser — the evaluation function eta in executable
        form) and append the new timestamped entry;
     3. broadcast the updated log; the operation completes when a final
        quorum of sites has acknowledged the merge, and remaining updates
        keep propagating in the background (quorums "grow in time", as in
        the bank-account example).

   Crashes, partitions and message loss come from the underlying network
   model; an operation that cannot assemble its quorums before the timeout
   reports Unavailable.  Completed operations are recorded in completion
   order — the history the verification experiments replay through the
   relaxation lattice's predicted behavior. *)

module Tr = Relax_obs.Tracer.Ambient
module At = Relax_obs.Attr

type result = Completed of Op.t * float | Unavailable of string

(* Chooses the response to an invocation given the merged view, or [None]
   when no response is consistent (e.g. Deq on an empty view). *)
type response_chooser = History.t -> Op.invocation -> Op.t option

type site = { mutable log : Log.t; mutable clock : Timestamp.t }

module Journal = Relax_journal.Journal
module Device = Relax_journal.Device

(* A site's stable storage: the device survives crashes (modulo the torn
   tail), the journal handle is re-attached — i.e. recovered — after
   each one. *)
type jstate = { dev : Device.t; mutable jr : Journal.t }

type t = {
  engine : Relax_sim.Engine.t;
  net : Relax_sim.Network.t;
  mutable assignment : Assignment.t;
  respond : response_chooser;
  timeout : float;
  retries : int; (* extra attempts after the first one times out *)
  backoff : float; (* base backoff delay, doubled per retry, jittered *)
  rng : Relax_sim.Rng.t; (* seeded jitter stream, split at creation *)
  metrics : Relax_obs.Metrics.t option;
  sites : site array;
  mutable completed : (float * Op.t) list; (* reverse completion order *)
  mutable unavailable : int;
  mutable ops_started : int; (* trace-visible operation ids *)
  mutable attempts_total : int;
  mutable retries_total : int;
  (* Entries of operations that timed out.  The underlying replication
     method (Herlihy '86) runs each operation inside a transaction with
     two-phase commit, so a failed operation aborts and its tentative log
     entries are discarded everywhere; tombstones model the abort records
     and are honored by [absorb]. *)
  mutable tombstones : Log.t;
  (* Entries written by operations still in flight: recorded at some sites
     but neither concluded nor aborted yet.  Checkpointing must not
     summarize them away — see [checkpoint]. *)
  mutable tentative : Log.entry list;
  (* Per-site write-ahead journals; [None] keeps the legacy volatile
     semantics (logs survive crashes by fiat, Wipe loses them). *)
  journals : jstate option array;
  (* Sites that restarted from their journal and have not yet absorbed
     a post-recovery transfer — the re-join window anti-entropy closes. *)
  recovering : bool array;
  mutable recoveries : int;
  (* Bumped by [set_log] whenever a site's log changes; with the up-site
     list it keys the memoized convergence [lag]. *)
  mutable log_version : int;
  mutable lag_version : int;
  mutable lag_up : int list;
  mutable lag_value : int;
}

let create ?(timeout = 200.0) ?(retries = 2) ?(backoff = 8.0) ?metrics engine
    net assignment ~respond =
  let n = Relax_sim.Network.sites net in
  if n <> Assignment.sites assignment then
    invalid_arg "Replica.create: network/assignment size mismatch";
  if retries < 0 then invalid_arg "Replica.create: negative retries";
  if backoff < 0.0 then invalid_arg "Replica.create: negative backoff";
  {
    engine;
    net;
    assignment;
    respond;
    timeout;
    retries;
    backoff;
    rng = Relax_sim.Rng.split (Relax_sim.Engine.rng engine);
    metrics;
    sites = Array.init n (fun _ -> { log = Log.empty; clock = Timestamp.zero });
    completed = [];
    unavailable = 0;
    ops_started = 0;
    attempts_total = 0;
    retries_total = 0;
    tombstones = Log.empty;
    tentative = [];
    journals = Array.make n None;
    recovering = Array.make n false;
    recoveries = 0;
    log_version = 0;
    lag_version = -1;
    lag_up = [];
    lag_value = 0;
  }

(* Durability opt-in: give every site a write-ahead journal on its own
   (crash-faithful) in-memory device.  From here on, [Fault.Crash]
   loses the site's volatile log but [recover_site] rebuilds it from
   the journal; [Fault.Wipe] is the only way to lose stable storage. *)
let enable_journals ?segment_size t =
  Array.iteri
    (fun s _ ->
      if t.journals.(s) = None then begin
        let dev = Device.memory () in
        let jr, _, _ = Journal.attach ?segment_size dev ~name:"wal" in
        t.journals.(s) <- Some { dev; jr }
      end)
    t.journals

let journaled t s = t.journals.(s) <> None
let recoveries t = t.recoveries

let recovering_count t =
  Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 t.recovering

let journal_append t s record =
  match t.journals.(s) with
  | None -> ()
  | Some j -> Journal.append j.jr (Wal.encode record)

let journal_sync t s =
  match t.journals.(s) with None -> () | Some j -> Journal.sync j.jr

let count t name = Option.iter (fun m -> Relax_obs.Metrics.incr m name) t.metrics

let engine t = t.engine
let network t = t.net
let assignment t = t.assignment

(* Live lattice movement: the degradation controller re-points the replica
   at the assignment realizing the new lattice point.  Thresholds are read
   once at the start of each [execute], so an in-flight operation keeps the
   quorums it started with and only subsequent operations see the switch. *)
let set_assignment t assignment =
  if Assignment.sites assignment <> Relax_sim.Network.sites t.net then
    invalid_arg "Replica.set_assignment: network/assignment size mismatch";
  t.assignment <- assignment

let site_log t s = t.sites.(s).log

(* Every write to a site's log goes through here, so the version keying
   the [lag] memo moves exactly when some log does.  Log operations
   return the same log physically when nothing changed (an absent entry
   removed, every entry kept by a filter); those writes keep the memo. *)
let set_log t s log =
  let site = t.sites.(s) in
  if log != site.log then begin
    site.log <- log;
    t.log_version <- t.log_version + 1
  end

(* The union of all site logs: what an omniscient observer knows. *)
let global_log t =
  Array.fold_left (fun acc s -> Log.merge acc s.log) Log.empty t.sites

(* The anti-entropy lag: how many up sites' logs differ from the union
   of all logs.  The controller's sample, its restore gate and the
   anti-entropy scheduler all read it on the same tick, and between
   ticks a quiet replica changes nothing, so it is memoized on the log
   version and the up-site list — the only inputs it has. *)
let lag t =
  let up = Relax_sim.Network.up_sites t.net in
  if t.lag_version = t.log_version && t.lag_up = up then t.lag_value
  else begin
    let global = global_log t in
    let value =
      List.fold_left
        (fun acc s -> if Log.equal t.sites.(s).log global then acc else acc + 1)
        0 up
    in
    t.lag_version <- t.log_version;
    t.lag_up <- up;
    t.lag_value <- value;
    value
  end

(* Completed operations in completion-time order. *)
let completed t = List.rev t.completed

let completed_history t : History.t = List.map snd (completed t)

let unavailable_count t = t.unavailable
let attempts_total t = t.attempts_total
let retries_total t = t.retries_total

let is_tombstoned t e = Log.mem t.tombstones e

(* Lineage instrumentation.  A stable textual key for an entry (entries
   are identified by (timestamp, operation)) and for the physical network
   copy whose delivery callback is currently running.  Both feed the
   support-graph extractor in [lib/ldfi]; everything is guarded by
   [Tr.active] so untraced runs pay nothing. *)
let entry_key e =
  Op.to_string (Log.entry_op e) ^ "@" ^ Timestamp.to_string (Log.entry_ts e)

let copy_key net =
  match Relax_sim.Network.delivering net with
  | Some (src, dst, seq) -> Relax_sim.Network.copy_key ~src ~dst ~seq
  | None -> "-"

(* Merge [log] into site [s], advancing its clock past everything seen;
   aborted entries are filtered out.  Every entry new to the site is
   appended to its journal (write-ahead: callers place the sync
   barrier before externalizing, e.g. before acknowledging).  When
   tracing, new entries are also reported with the delivery that
   carried them — the durability lineage: which copies an entry's
   presence at [s] depends on.  Any absorbed transfer also settles a
   recovering site: it has re-joined the anti-entropy flow. *)
let absorb t s log =
  let site = t.sites.(s) in
  let watch = Tr.active () || journaled t s in
  let before = site.log in
  let merged = Log.merge before log in
  set_log t s
    (if Log.is_empty t.tombstones then merged
     else Log.filter (fun e -> not (is_tombstoned t e)) merged);
  site.clock <- Timestamp.merge site.clock (Log.max_ts site.log);
  t.recovering.(s) <- false;
  if watch then begin
    let traced = Tr.active () in
    let via = if traced then copy_key t.net else "-" in
    let now = Relax_sim.Engine.now t.engine in
    List.iter
      (fun e ->
        if not (Log.mem before e) then begin
          journal_append t s (Wal.Entry e);
          if traced then
            Tr.instant ~time:now "replica/absorb"
              ~attrs:
                [
                  At.int "site" s;
                  At.str "entry" (entry_key e);
                  At.str "via" via;
                  At.float "at" now;
                ]
        end)
      (Log.entries site.log)
  end

let settle_entry t entry =
  t.tentative <-
    List.filter (fun e -> not (Log.equal_entry e entry)) t.tentative

(* Abort an operation's tentative entry everywhere.  The tombstone is
   journaled too (unsynced — aborts are not commit points), but crash
   recovery additionally filters through [t.tombstones], so a torn-off
   tombstone still cannot resurrect the aborted entry. *)
let abort_entry t entry =
  settle_entry t entry;
  t.tombstones <- Log.insert t.tombstones entry;
  Array.iteri
    (fun s site ->
      set_log t s (Log.remove site.log entry);
      journal_append t s (Wal.Tomb entry))
    t.sites

(* Stable-storage loss: the site forgets its log and clock — and its
   journal, when it has one.  For journal-free replicas this doubles as
   the crash model (logs kept in volatile memory); the amnesia
   experiment uses it to show the stable-logs assumption is
   load-bearing. *)
let wipe_site t s =
  set_log t s Log.empty;
  t.sites.(s).clock <- Timestamp.zero;
  t.recovering.(s) <- false;
  match t.journals.(s) with None -> () | Some j -> Journal.reset j.jr

(* Power loss at a journaled site: volatile state (log, clock) is gone
   and the journal device keeps only its synced prefix plus a torn
   tail.  Without a journal this is a no-op — the legacy crash model
   where logs are assumed stable and only the network notices. *)
let crash_site t s =
  match t.journals.(s) with
  | None -> ()
  | Some j ->
    Device.crash j.dev;
    set_log t s Log.empty;
    t.sites.(s).clock <- Timestamp.zero;
    t.recovering.(s) <- false

(* Restart from stable storage: re-attach the journal (truncating the
   torn tail), replay its records into a fresh log, and mark the site
   as recovering until anti-entropy re-joins it.  Replay honors
   tombstones from the journal and — because an abort's tombstone may
   itself have been torn off — the replica-global tombstone list. *)
let recover_site t s =
  match t.journals.(s) with
  | None -> ()
  | Some j ->
    let jr, payloads, stats = Journal.attach j.dev ~name:"wal" in
    j.jr <- jr;
    let log = ref Log.empty in
    let tombs = ref Log.empty in
    let epoch = ref 0 in
    let clock = ref Timestamp.zero in
    (* the restored clock merges every timestamp the journal has seen —
       entries, tombstones and clock reservations — not just the
       surviving log's maximum: it must dominate anything the site
       issued before the crash, including aborted tentatives *)
    let see ts = clock := Timestamp.merge !clock ts in
    List.iter
      (fun payload ->
        match Wal.decode payload with
        | None -> () (* CRC-valid but unknown: a future record kind *)
        | Some (Wal.Entry e) ->
          see (Log.entry_ts e);
          if not (Log.mem !tombs e) then log := Log.insert !log e
        | Some (Wal.Tomb e) ->
          see (Log.entry_ts e);
          tombs := Log.insert !tombs e;
          log := Log.remove !log e
        | Some (Wal.Checkpoint es) ->
          List.iter (fun e -> see (Log.entry_ts e)) es;
          log := Log.of_entries es;
          tombs := Log.empty
        | Some (Wal.Epoch n) -> epoch := max !epoch n
        | Some (Wal.Clock ts) -> see ts)
      payloads;
    let site = t.sites.(s) in
    set_log t s (Log.filter (fun e -> not (is_tombstoned t e)) !log);
    site.clock <- Timestamp.merge !clock (Log.max_ts site.log);
    t.recovering.(s) <- true;
    t.recoveries <- t.recoveries + 1;
    Journal.append j.jr (Wal.encode (Wal.Epoch (!epoch + 1)));
    Journal.sync j.jr;
    if Tr.active () then
      Tr.instant
        ~time:(Relax_sim.Engine.now t.engine)
        "replica/recover"
        ~attrs:
          [
            At.int "site" s;
            At.int "entries" (Log.length site.log);
            At.int "records" stats.Journal.records;
            At.int "dropped" stats.Journal.dropped_bytes;
            At.int "epoch" (!epoch + 1);
          ]

(* One anti-entropy round: every up site pushes its log to every other
   site it can currently reach.  Called by experiments (and the adaptive
   anti-entropy scheduler) to model background update propagation while
   the system is quiet.

   Reachability is checked at the call site rather than left to delivery:
   during a partition a full-mesh push would burn sends (and randomness)
   on messages the network is guaranteed to drop at the cell boundary.
   Only the reachable side of a partition converges; [Log.merge]'s
   idempotence makes the rounds after heal safe — re-pushed entries are
   recognized as the same event, never double-applied. *)
let gossip t =
  let n = Array.length t.sites in
  for src = 0 to n - 1 do
    if Relax_sim.Network.is_up t.net src then begin
      (* the whole fan-out from [src] rides one batched transfer: a
         single latency draw and engine event instead of n-1 of each *)
      let log = t.sites.(src).log in
      let targets = ref [] in
      for dst = n - 1 downto 0 do
        if dst <> src && Relax_sim.Network.reachable t.net ~src ~dst then
          targets := (dst, fun () -> absorb t dst log) :: !targets
      done;
      if !targets <> [] then
        Relax_sim.Network.send_batch t.net ~src (Array.of_list !targets)
    end
  done

(* Checkpointing: once a log prefix is stable — identical at every site —
   it can be replaced everywhere by a summary reconstructing its effect
   (log compaction, as in the underlying replication method).  The
   [summarize] function maps the stable prefix's history to equivalent
   synthetic operations (e.g. re-enqueues of the still-pending items).
   Returns the number of entries reclaimed per site, or [None] when the
   prefix is not yet stable everywhere. *)
let checkpoint t ~watermark ~summarize =
  (* An in-flight operation's tentative entry may sit below the watermark
     at the sites that already recorded it while its fate (commit or
     abort) is still open.  Summarizing it away would either launder an
     aborted entry into the summary or strand the commit; refuse until
     the race resolves. *)
  if
    List.exists
      (fun e -> Timestamp.compare (Log.entry_ts e) watermark <= 0)
      t.tentative
  then None
  else
  let below e = Timestamp.compare (Log.entry_ts e) watermark <= 0 in
  let prefixes = Array.map (fun site -> Log.filter below site.log) t.sites in
  let reference = prefixes.(0) in
  if not (Array.for_all (Log.equal reference) prefixes) then None
  else begin
    let history = Log.to_history reference in
    let summary = summarize history in
    let reclaimed = Log.length reference - List.length summary in
    Array.iteri
      (fun s site ->
        set_log t s (Log.compact site.log ~watermark ~summary);
        (* the journal compacts with the log: snapshot the compacted
           state into a fresh segment and reclaim the older ones *)
        match t.journals.(s) with
        | None -> ()
        | Some j ->
          Journal.checkpoint j.jr
            (Wal.encode (Wal.Checkpoint (Log.entries site.log))))
      t.sites;
    Some reclaimed
  end

(* Executes one invocation on behalf of a client attached to
   [client_site].  [callback] fires exactly once, with the response and
   its latency or with Unavailable.

   An attempt that times out aborts (its tentative entry is tombstoned
   everywhere, the 2PC abort of the underlying replication method) and,
   while attempts remain, the whole operation is retried after a seeded,
   jittered exponential backoff — a transiently dropped quorum message
   should not doom the operation.  Only timeouts retry: a [None] from
   the response chooser is a semantic refusal (e.g. a Deq against an
   empty view), not a fault, and fails immediately.

   Quorum counting is per-site: duplicate deliveries of the same reply
   or acknowledgement (the duplication fault) must not let the client
   believe it assembled a quorum out of fewer distinct sites. *)
let execute t ~client_site inv callback =
  let op_name = Op.invocation_name inv in
  let initial_need = Assignment.initial_threshold t.assignment op_name in
  let final_need = Assignment.final_threshold t.assignment op_name in
  let started = Relax_sim.Engine.now t.engine in
  let n = Array.length t.sites in
  let op_id = t.ops_started in
  t.ops_started <- t.ops_started + 1;
  (* Operations overlap in virtual time, so they trace as correlated
     instants keyed by [op] rather than as nested spans. *)
  let trace_op name attrs =
    if Tr.active () then
      Tr.instant ~time:(Relax_sim.Engine.now t.engine) name
        ~attrs:(At.int "op" op_id :: attrs)
  in
  trace_op "replica/op"
    [ At.str "name" op_name; At.int "site" client_site ];
  let settled = ref false in
  let attempt_no = ref 0 in
  let conclude r =
    if not !settled then begin
      settled := true;
      (match r with
      | Completed (op, latency) ->
        count t "replica/completed";
        trace_op "replica/complete"
          [ At.float "lat" latency; At.int "attempt" !attempt_no ];
        t.completed <- (Relax_sim.Engine.now t.engine, op) :: t.completed;
        Option.iter
          (fun m -> Relax_obs.Metrics.observe m "replica/latency" latency)
          t.metrics
      | Unavailable reason ->
        count t "replica/unavailable";
        trace_op "replica/unavailable" [ At.str "reason" reason ];
        t.unavailable <- t.unavailable + 1);
      callback r
    end
  in
  let rec attempt k =
    (* [k] is the attempt number, 1-based. *)
    attempt_no := k;
    t.attempts_total <- t.attempts_total + 1;
    count t "replica/attempts";
    trace_op "replica/attempt" [ At.int "attempt" k ];
    let attempt_over = ref false in
    let written_entry = ref None in
    let fail_attempt ~retryable reason =
      if (not !attempt_over) && not !settled then begin
        attempt_over := true;
        (* abort: the tentative entry (if any) is discarded everywhere *)
        Option.iter (abort_entry t) !written_entry;
        if retryable && k <= t.retries then begin
          t.retries_total <- t.retries_total + 1;
          count t "replica/retries";
          let jitter = 1.0 +. (0.5 *. Relax_sim.Rng.unit_float t.rng) in
          let delay = t.backoff *. (2.0 ** float_of_int (k - 1)) *. jitter in
          trace_op "replica/retry" [ At.int "attempt" k; At.float "delay" delay ];
          Option.iter
            (fun m -> Relax_obs.Metrics.observe m "replica/backoff" delay)
            t.metrics;
          Relax_sim.Engine.schedule t.engine ~delay (fun () ->
              if not !settled then attempt (k + 1))
        end
        else conclude (Unavailable reason)
      end
    in
    let succeed op =
      if (not !attempt_over) && not !settled then begin
        attempt_over := true;
        Option.iter (settle_entry t) !written_entry;
        conclude (Completed (op, Relax_sim.Engine.now t.engine -. started))
      end
    in
    (* Phase 2+3, entered once the view is assembled. *)
    let write_phase view_log =
      if (not !attempt_over) && not !settled then begin
        trace_op "replica/view" [ At.int "attempt" k ];
        match t.respond (Log.to_history view_log) inv with
        | None ->
          fail_attempt ~retryable:false
            ("no response consistent with the view for " ^ op_name)
        | Some op ->
          (* Lamport discipline: the new entry's timestamp dominates
             everything the client observed (its view) and everything its
             attached site has seen; the site's clock advances in turn.
             Timestamps need not be globally unique — entries are
             identified by (timestamp, operation), and the total (ts, op)
             order keeps log merges deterministic. *)
          let site = t.sites.(client_site) in
          let ts =
            Timestamp.tick
              (Timestamp.merge (Log.max_ts view_log) site.clock)
              ~site:client_site
          in
          site.clock <- Timestamp.merge site.clock ts;
          (* clock-reservation barrier: persist the issued timestamp
             before the tentative entry leaves the site.  A recovered
             clock must dominate every timestamp the site ever issued,
             or a post-recovery attempt could mint the same (ts, op)
             identity as an aborted tentative entry and be annihilated
             by its tombstone. *)
          if journaled t client_site then begin
            journal_append t client_site (Wal.Clock ts);
            journal_sync t client_site
          end;
          let entry = Log.entry ~ts op in
          if Tr.active () then
            trace_op "replica/entry"
              [ At.int "attempt" k; At.str "entry" (entry_key entry) ];
          written_entry := Some entry;
          t.tentative <- entry :: t.tentative;
          let updated = Log.insert view_log entry in
          let acks = ref 0 in
          let acked = Array.make n false in
          (* The update is pushed only to a final quorum's worth of sites
             the client can currently reach; everybody else learns of it
             through background gossip.  This is the lazy-propagation
             model of Locus and Grapevine that the bank-account example
             relies on: final quorums "grow in time". *)
          let targets =
            List.filter
              (fun s ->
                Relax_sim.Network.reachable t.net ~src:client_site ~dst:s)
              (List.init n Fun.id)
            |> List.filteri (fun i _ -> i < max final_need 1)
          in
          if final_need = 0 then succeed op
          else
            List.iter
              (fun s ->
                Relax_sim.Network.send t.net ~src:client_site ~dst:s (fun () ->
                    (* the copy that carried the update to [s]: part of the
                       op's completion lineage through the ack below *)
                    let upd = if Tr.active () then copy_key t.net else "-" in
                    absorb t s updated;
                    (* op-commit durability barrier: the entry must be on
                       stable storage before the site's acknowledgement
                       can count toward the final quorum *)
                    journal_sync t s;
                    (* acknowledgement travelling back *)
                    Relax_sim.Network.send t.net ~src:s ~dst:client_site
                      (fun () ->
                        if not acked.(s) then begin
                          acked.(s) <- true;
                          incr acks;
                          if Tr.active () && !acks <= final_need then
                            trace_op "replica/ack"
                              [
                                At.int "attempt" k;
                                At.int "site" s;
                                At.str "upd" upd;
                                At.str "ack" (copy_key t.net);
                              ];
                          if !acks = final_need then succeed op
                        end
                        else if
                          Tr.active () && (not !attempt_over)
                          && not !settled
                        then
                          (* a duplicated delivery re-acknowledging [s]:
                             an alternative carrier for the same quorum
                             contribution — drop lineage for LDFI *)
                          trace_op "replica/ack-dup"
                            [
                              At.int "attempt" k;
                              At.int "site" s;
                              At.str "upd" upd;
                              At.str "ack" (copy_key t.net);
                            ])))
              targets
      end
    in
    (* Phase 1: gather an initial quorum of logs. *)
    let replies = ref 0 in
    let replied = Array.make n false in
    let view = ref Log.empty in
    if initial_need = 0 then write_phase Log.empty
    else
      for s = 0 to n - 1 do
        Relax_sim.Network.send t.net ~src:client_site ~dst:s (fun () ->
            (* the copy that carried the read request to [s] *)
            let req = if Tr.active () then copy_key t.net else "-" in
            let log = t.sites.(s).log in
            Relax_sim.Network.send t.net ~src:s ~dst:client_site (fun () ->
                if (not replied.(s)) && (not !attempt_over) && not !settled
                then begin
                  replied.(s) <- true;
                  incr replies;
                  (* counted toward the view: this reply (and the request
                     that provoked it) is part of the op's completion
                     lineage *)
                  if Tr.active () && !replies <= initial_need then
                    trace_op "replica/reply"
                      [
                        At.int "attempt" k;
                        At.int "site" s;
                        At.str "req" req;
                        At.str "rep" (copy_key t.net);
                      ];
                  view := Log.merge !view log;
                  if !replies = initial_need then write_phase !view
                end
                else if
                  replied.(s) && Tr.active () && (not !attempt_over)
                  && not !settled
                then
                  (* a duplicated delivery re-answering site [s]'s read:
                     an alternative carrier for its view contribution *)
                  trace_op "replica/reply-dup"
                    [
                      At.int "attempt" k;
                      At.int "site" s;
                      At.str "req" req;
                      At.str "rep" (copy_key t.net);
                    ]))
      done;
    (* Timeout watchdog for this attempt. *)
    Relax_sim.Engine.schedule t.engine ~delay:t.timeout (fun () ->
        if (not !attempt_over) && not !settled then begin
          count t "replica/timeouts";
          fail_attempt ~retryable:true
            (Printf.sprintf "timeout after %.0f" t.timeout)
        end)
  in
  attempt 1
