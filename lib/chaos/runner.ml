(* The chaos run engine: one seeded workload over the replica runtime
   under a pre-generated fault schedule.

   The runner is deliberately generic — it knows nothing about lattice
   points or predicted behaviors.  A scenario (lib/experiments wires
   them) supplies the client: either a fixed quorum assignment, or a
   controlled client that delegates lattice movement to the degradation
   controller (lib/degrade) — online monitors decide when to shed to the
   degraded assignment and when the restore gate allows re-strengthening,
   and every transition is emitted as a Degrade/Restore event into the
   history, which thus replays through the Section 2.3 combined automaton
   unchanged.  The caller judges the returned history with
   {!Oracle.check}; passing an [online] oracle factory additionally
   checks it incrementally, flagging the violation at the operation that
   causes it.

   Everything observable is deterministic in (config, events): the
   engine, network and replica draw from streams derived from
   [config.seed], the workload from [config.seed + 77], the controller
   and its anti-entropy scheduler are RNG-free, and the fault schedule is
   data.  The [digest] field condenses the run into a canonical string so
   replay equivalence is a string compare. *)

open Relax_core
open Relax_objects
open Relax_quorum
open Relax_replica
module Degrade = Relax_degrade

type config = {
  sites : int;
  requests : int;
  mean_latency : float;
  timeout : float;
  retries : int;
  backoff : float;  (* base retry backoff, doubled per attempt *)
  gossip_every : int;  (* fixed-client anti-entropy cadence, in operations *)
  op_window : float;  (* engine time budgeted per operation *)
  seed : int;
}

let default_config =
  {
    sites = 5;
    requests = 24;
    mean_latency = 3.0;
    timeout = 80.0;
    retries = 2;
    backoff = 8.0;
    gossip_every = 5;
    op_window = 400.0;
    seed = Relax_sim.Engine.default_seed;
  }

(* The engine time actually budgeted per operation: the configured
   window, stretched when the client knobs need more — every attempt may
   burn a full timeout, with doubled-and-jittered (at most x1.5) backoff
   between attempts — so an operation always settles before the next one
   starts and the workload stays serial.  At the default knobs the
   stretch is a no-op. *)
let op_window_for config =
  let attempts = float_of_int (config.retries + 1) in
  let backoffs =
    config.backoff *. ((2.0 ** float_of_int config.retries) -. 1.0) *. 1.5
  in
  Float.max config.op_window
    ((attempts *. config.timeout) +. backoffs +. (4.0 *. config.mean_latency))

(* Enough engine time for every operation window plus reconvergence and
   the final drain — nemesis schedules are generated out to here. *)
let horizon config =
  float_of_int ((2 * config.requests) + 4) *. op_window_for config

type client =
  | Fixed of Assignment.t
  | Controlled of {
      preferred : Assignment.t;
      degraded : Assignment.t;
      degrade : Op.t;
      restore : Op.t;
      controller : Degrade.Controller.config option;
    }

type result = {
  history : History.t;
  completed : int;
  unavailable : int;
  empty_views : int;
  mode_switches : int;
  attempts : int;
  retries_used : int;
  transitions : Degrade.Controller.transition list;
  time_to_degrade : float list;
  time_to_restore : float list;
  gossip_rounds : int;
  online_violation : Degrade.Online.violation option;
  recoveries : int;  (** journal recoveries performed (durable runs) *)
  metrics : Relax_obs.Metrics.t;
  digest : string;
}

(* An Unavailable whose reason starts with "no" is a successful read of
   an empty view, not a quorum failure (same convention as X-deg). *)
let is_empty_view reason =
  String.length reason >= 2 && reason.[0] = 'n' && reason.[1] = 'o'

let run ?(config = default_config) ?(durable = false) ?online ?probe ~client
    ~respond events =
  let engine = Relax_sim.Engine.create ~seed:config.seed () in
  let net =
    Relax_sim.Network.create ~mean_latency:config.mean_latency engine
      ~sites:config.sites
  in
  let metrics = Relax_obs.Metrics.create () in
  let assignment =
    match client with Fixed a -> a | Controlled { preferred; _ } -> preferred
  in
  let replica =
    Replica.create ~timeout:config.timeout ~retries:config.retries
      ~backoff:config.backoff ~metrics engine net assignment ~respond
  in
  (* Durable runs give every site a write-ahead journal, so a Crash in
     the schedule loses volatile state but Recover replays the journal;
     non-durable runs keep the legacy stable-by-fiat log semantics. *)
  if durable then Replica.enable_journals replica;
  Fault.install ~replica engine net events;
  let rng = Relax_sim.Rng.create ~seed:(config.seed + 77) in
  (* Distinct shuffled priorities; each enqueue is followed by a dequeue
     with probability 0.7 (the X-deg workload). *)
  let ops =
    let priorities = Array.init config.requests (fun i -> i + 1) in
    Relax_sim.Rng.shuffle rng priorities;
    let acc = ref [] in
    Array.iter
      (fun prio ->
        acc := `Enq prio :: !acc;
        if Relax_sim.Rng.bool rng 0.7 then acc := `Deq :: !acc)
      priorities;
    List.rev !acc
  in
  let completed_ops = ref 0
  and unavailable = ref 0
  and empty_views = ref 0
  and switches = ref 0 in
  let oracle = Option.map (fun make -> make ()) online in
  let controlled_history = ref [] in
  (* For a controlled client the oracle consumes the history as it is
     produced — events and operations in claim order — so a violation is
     flagged at the causing event.  For a fixed client the history is the
     replica's completion record, fed to the oracle after the run. *)
  let emit p =
    controlled_history := p :: !controlled_history;
    Option.iter (fun o -> Degrade.Online.step o p) oracle
  in
  let controller =
    match client with
    | Fixed _ -> None
    | Controlled { preferred; degraded; degrade; restore; controller } ->
      let emit_event ~degraded:d =
        incr switches;
        let module A = Relax_obs.Tracer.Ambient in
        if A.active () then
          A.instant
            ~time:(Relax_sim.Engine.now engine)
            "chaos/mode"
            ~attrs:[ Relax_obs.Attr.bool "degraded" d ];
        emit (if d then degrade else restore)
      in
      (* an observer sampled with the constraints, always healthy, so it
         sees the replica at every controller sample and decides nothing *)
      let probe =
        Option.map
          (fun f ->
            Degrade.Monitor.make ~name:"probe" (fun () ->
                f replica;
                { Degrade.Monitor.healthy = true; value = 0.0 }))
          probe
      in
      let c =
        Degrade.Controller.create ?config:controller ~replica
          ~constraints:
            ([
               Degrade.Monitor.quorum_reachability ~name:"quorums" ~net
                 ~assignment:preferred ();
               Degrade.Monitor.retry_pressure ~name:"retry-pressure" ~replica ();
             ]
            @ Option.to_list probe)
          ~restore_gate:
            ([
               Degrade.Monitor.convergence ~name:"converged" ~replica ();
               Degrade.Monitor.quorum_reachability ~name:"quorums" ~net
                 ~assignment:preferred ();
             ]
            @
            (* durable runs must not re-strengthen while a site is still
               running on its journal's view, pre-anti-entropy *)
            if durable then
              [
                Degrade.Monitor.recovery_settled ~name:"recovery-settled"
                  ~replica ();
              ]
            else [])
          ~preferred ~degraded ~emit:emit_event ()
      in
      Degrade.Controller.install c;
      Some c
  in
  let ops_since_gossip = ref 0 in
  let op_window = op_window_for config in
  (* Lineage landmark: one instant per workload slot, carrying the slot
     index and its engine start time.  The LDFI planner uses these to
     translate "crash site s during op k's window" into schedule times. *)
  let trace_window idx =
    let module A = Relax_obs.Tracer.Ambient in
    if A.active () then begin
      let now = Relax_sim.Engine.now engine in
      A.instant ~time:now "chaos/op-window"
        ~attrs:
          [ Relax_obs.Attr.int "index" idx; Relax_obs.Attr.float "at" now ]
    end
  in
  let run_op idx op =
    trace_window idx;
    (match controller with
    | Some c -> Degrade.Controller.before_op c
    | None ->
      (* fixed clients keep the legacy fixed-cadence anti-entropy *)
      incr ops_since_gossip;
      if !ops_since_gossip >= config.gossip_every then begin
        ops_since_gossip := 0;
        Replica.gossip replica
      end);
    match Relax_sim.Network.up_sites net with
    | [] ->
      (* a shrunken schedule may have dropped every Recover: nobody to
         talk to, but time must still pass so later faults fire *)
      incr unavailable;
      Relax_sim.Engine.run
        ~until:(Relax_sim.Engine.now engine +. op_window)
        engine
    | up ->
      let client_site = Relax_sim.Rng.pick rng up in
      let inv =
        match op with
        | `Enq prio -> Op.inv Queue_ops.enq_name ~args:[ Value.int prio ]
        | `Deq -> Op.inv Queue_ops.deq_name
      in
      let outcome = ref None in
      Option.iter Degrade.Controller.op_started controller;
      Replica.execute replica ~client_site inv (fun r -> outcome := Some r);
      Relax_sim.Engine.run
        ~until:(Relax_sim.Engine.now engine +. op_window)
        engine;
      let finish o = Option.iter (fun c -> Degrade.Controller.op_finished c o) controller in
      (match !outcome with
      | Some (Replica.Completed (p, _)) ->
        incr completed_ops;
        finish Degrade.Controller.Op_ok;
        (match client with Controlled _ -> emit p | Fixed _ -> ())
      | Some (Replica.Unavailable reason) ->
        if is_empty_view reason then begin
          incr empty_views;
          finish Degrade.Controller.Op_refused
        end
        else begin
          incr unavailable;
          finish Degrade.Controller.Op_failed
        end
      | None ->
        incr unavailable;
        finish Degrade.Controller.Op_failed)
  in
  List.iteri run_op ops;
  (* drain background propagation *)
  (let module A = Relax_obs.Tracer.Ambient in
   if A.active () then begin
     let now = Relax_sim.Engine.now engine in
     A.instant ~time:now "chaos/quiesce"
       ~attrs:[ Relax_obs.Attr.float "at" now ]
   end);
  Replica.gossip replica;
  Relax_sim.Engine.run
    ~until:(Relax_sim.Engine.now engine +. op_window)
    engine;
  Option.iter Degrade.Controller.stop controller;
  let history =
    match client with
    | Fixed _ -> Replica.completed_history replica
    | Controlled _ -> List.rev !controlled_history
  in
  (match (client, oracle) with
  | Fixed _, Some o -> Degrade.Online.feed o history
  | _ -> ());
  let transitions =
    match controller with
    | None -> []
    | Some c -> Degrade.Controller.transitions c
  in
  let online_violation =
    Option.bind oracle (fun o -> Degrade.Online.violation o)
  in
  let sent, delivered, dropped = Relax_sim.Network.stats net in
  let digest =
    Fmt.str
      "completed=%d unavailable=%d empty=%d switches=%d attempts=%d \
       retries=%d net=%d/%d/%d+%d online=%s history=%a"
      !completed_ops !unavailable !empty_views !switches
      (Replica.attempts_total replica)
      (Replica.retries_total replica)
      sent delivered dropped
      (Relax_sim.Network.duplicated net)
      (match online_violation with
      | None -> "ok"
      | Some v -> Fmt.str "viol@%d" v.Degrade.Online.index)
      History.pp history
  in
  {
    history;
    completed = !completed_ops;
    unavailable = !unavailable;
    empty_views = !empty_views;
    mode_switches = !switches;
    attempts = Replica.attempts_total replica;
    retries_used = Replica.retries_total replica;
    transitions;
    time_to_degrade =
      (match controller with
      | None -> []
      | Some c -> Degrade.Controller.time_to_degrade c);
    time_to_restore =
      (match controller with
      | None -> []
      | Some c -> Degrade.Controller.time_to_restore c);
    gossip_rounds =
      (match controller with
      | None -> 0
      | Some c -> Degrade.Anti_entropy.rounds (Degrade.Controller.anti_entropy c));
    online_violation;
    recoveries = Replica.recoveries replica;
    metrics;
    digest;
  }
