open Relax_quorum
open Relax_objects

(* Experiment X-load: an open-loop, YCSB-style workload generator over
   the sharded simulation engine.

   The quorum-consensus replica of Section 3.3 is exercised at
   production scale: millions of client operations per run, Poisson
   arrivals (open loop — arrival times are drawn up front and do not
   slow down when the system does, so overload shows up as latency and
   unavailability instead of being absorbed by the generator), a
   configurable read fraction, and a mid-run crash window plus per-leg
   message loss so the lattice points separate: the preferred point
   needs full quorums for every phase while the degraded points keep
   answering with whatever is reachable.

   Each client operation is the two-phase quorum protocol of the
   replica runtime, modelled at the message level without materializing
   logs (a million-op log replay would measure list traversal, not the
   protocol): phase 1 queries an initial quorum and waits for its
   replies, phase 2 pushes to a final quorum and waits for its acks;
   fan-outs ride {!Relax_sim.Network.send_batch} and an operation that
   cannot assemble its quorums before the timeout counts as
   unavailable.  Latencies land in {!Relax_obs.Metrics.Histogram}s with
   fixed bucket bounds, so per-shard histograms merge deterministically
   in shard order and the reported percentiles are a pure function of
   (seed, shards) — independent of the domain count.

   The worlds are sharded, not the world: shard [i] simulates its own
   client population against its own replica group on its own engine
   (decorrelated seed), which is how a production fleet scales reads
   and writes across independent replica groups.  Wall-clock throughput
   is the one intentionally nondeterministic output. *)

type params = {
  ops : int; (* client operations across all shards *)
  shards : int;
  sites : int;
  rate : float; (* mean arrivals per simulated ms, per shard *)
  read_fraction : float;
  timeout : float; (* ms before an operation counts as unavailable *)
  drop : float; (* per-leg loss probability *)
  crash : bool; (* crash half the sites for the middle fifth of the run *)
  closed : bool; (* closed loop: a bounded client pool replaces Poisson *)
  concurrency : int; (* in-flight bound per shard, closed loop only *)
  seed : int;
}

let default_params =
  {
    ops = 1_000_000;
    shards = 4;
    sites = 5;
    rate = 1.0;
    read_fraction = 0.5;
    timeout = 120.0;
    drop = 0.02;
    crash = true;
    closed = false;
    concurrency = 32;
    seed = Relax_sim.Engine.default_seed;
  }

type outcome = {
  label : string;
  ops : int; (* operations that arrived *)
  completed : int;
  unavailable : int;
  availability : float;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  events : int; (* engine events dispatched, all shards *)
  wall_s : float;
  ops_per_sec : float;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-34s ops %8d  avail %6.2f%%  p50 %6.1f  p99 %6.1f  p999 %6.1f  %9.0f ops/s"
    o.label o.ops (100.0 *. o.availability) o.p50 o.p99 o.p999 o.ops_per_sec

(* Latency bucket bounds, denser than {!Relax_obs.Metrics.default_bounds}
   in the band where the quorum protocol actually lands (two RTTs at a
   5 ms mean leg): the default 1-2-5 decade ladder would report p50 and
   p99 from the same handful of buckets.  Identical bounds in every
   shard keep the histograms mergeable. *)
let latency_bounds =
  [|
    1.0; 2.0; 3.0; 4.0; 5.0; 7.5; 10.0; 12.5; 15.0; 17.5; 20.0; 25.0; 30.0;
    35.0; 40.0; 50.0; 60.0; 70.0; 80.0; 90.0; 100.0; 110.0; 120.0; 150.0;
    200.0; 500.0;
  |]

(* Per-operation state: one cell so a late ack or the timeout cannot
   double-count the operation. *)
type op_state = { mutable finished : bool }

type shard = {
  net : Relax_sim.Network.t;
  client_rng : Relax_sim.Rng.t;
  hist : Relax_obs.Metrics.Histogram.h;
  mutable arrived : int;
  mutable completed : int;
  mutable unavailable : int;
}

(* The first [k] sites currently reachable from [home], as batch targets
   carrying [deliver].  Returns [None] when fewer than [k] are reachable
   — the operation cannot assemble its quorum and waits out its timeout
   (sending to a short quorum could never gather enough acks, so the
   messages would be pure waste). *)
let quorum_targets net ~home ~k deliver =
  if k = 0 then Some [||]
  else begin
    let sites = Relax_sim.Network.sites net in
    let found = ref 0 in
    let targets = Array.make k (0, Fun.id) in
    let dst = ref 0 in
    while !found < k && !dst < sites do
      if Relax_sim.Network.reachable net ~src:home ~dst:!dst then begin
        targets.(!found) <- (!dst, deliver !dst);
        incr found
      end;
      incr dst
    done;
    if !found = k then Some targets else None
  end

(* One client operation: the two-phase quorum protocol against the
   shard's replica group.  Message legs: [initial] requests + replies,
   then [final] pushes + acks, every leg subject to loss; the op
   completes when the final acks are in, or becomes unavailable at
   [timeout]. *)
let start_op ?(on_settle = fun () -> ()) engine sh ~timeout
    { Assignment.initial; final } =
  sh.arrived <- sh.arrived + 1;
  let t0 = Relax_sim.Engine.now engine in
  let op = { finished = false } in
  Relax_sim.Engine.schedule engine ~delay:timeout (fun () ->
      if not op.finished then begin
        op.finished <- true;
        sh.unavailable <- sh.unavailable + 1;
        on_settle ()
      end);
  let home = Relax_sim.Rng.int sh.client_rng (Relax_sim.Network.sites sh.net) in
  let complete () =
    if not op.finished then begin
      op.finished <- true;
      sh.completed <- sh.completed + 1;
      Relax_obs.Metrics.Histogram.observe sh.hist
        (Relax_sim.Engine.now engine -. t0);
      on_settle ()
    end
  in
  let phase ~k ~next =
    if k = 0 then next ()
    else begin
      let got = ref 0 in
      let deliver dst () =
        (* the site answers; the reply leg is an individual message *)
        Relax_sim.Network.send sh.net ~src:dst ~dst:home (fun () ->
            if not op.finished then begin
              incr got;
              if !got = k then next ()
            end)
      in
      match quorum_targets sh.net ~home ~k deliver with
      | Some targets -> Relax_sim.Network.send_batch sh.net ~src:home targets
      | None -> () (* short quorum: wait out the timeout *)
    end
  in
  phase ~k:initial ~next:(fun () -> phase ~k:final ~next:complete)

(* Self-scheduling Poisson arrivals: each arrival starts its operation
   and schedules the next draw, so the queue never holds more than one
   pending arrival per shard. *)
let arrivals engine sh ~params ~assignment ~n_ops =
  let enq = Assignment.thresholds assignment Queue_ops.enq_name in
  let deq = Assignment.thresholds assignment Queue_ops.deq_name in
  let rec arrive k () =
    let th =
      if Relax_sim.Rng.bool sh.client_rng params.read_fraction then deq
      else enq
    in
    start_op engine sh ~timeout:params.timeout th;
    if k + 1 < n_ops then
      Relax_sim.Engine.schedule engine
        ~delay:(Relax_sim.Rng.exponential sh.client_rng ~rate:params.rate)
        (arrive (k + 1))
  in
  if n_ops > 0 then
    Relax_sim.Engine.schedule engine
      ~delay:(Relax_sim.Rng.exponential sh.client_rng ~rate:params.rate)
      (arrive 0)

(* The closed loop: a pool of [concurrency] client threads is the
   admission valve — each issues one operation, waits for it to settle
   (complete or time out), then immediately claims the next from the
   shared remainder.  In-flight operations never exceed the pool size,
   so the generator absorbs overload as reduced offered rate instead of
   queueing it; [rate] only staggers the pool start-up (and places the
   crash window), it does not pace steady state.  Deterministic in
   (params, point): every rng draw happens in engine-event order. *)
let closed_clients engine sh ~params ~assignment ~n_ops =
  let enq = Assignment.thresholds assignment Queue_ops.enq_name in
  let deq = Assignment.thresholds assignment Queue_ops.deq_name in
  let remaining = ref n_ops in
  let rec issue () =
    if !remaining > 0 then begin
      decr remaining;
      let th =
        if Relax_sim.Rng.bool sh.client_rng params.read_fraction then deq
        else enq
      in
      start_op engine sh ~timeout:params.timeout ~on_settle:issue th
    end
  in
  for _ = 1 to min params.concurrency n_ops do
    Relax_sim.Engine.schedule engine
      ~delay:(Relax_sim.Rng.exponential sh.client_rng ~rate:params.rate)
      issue
  done

(* The crash window: half the sites (the top half by index) go down for
   the middle fifth of the nominal run, the same schedule in every
   shard's virtual time. *)
let schedule_crash_window engine net ~horizon =
  let n = Relax_sim.Network.sites net in
  let down = n / 2 in
  if down > 0 then begin
    let t_crash = 0.4 *. horizon and t_recover = 0.6 *. horizon in
    Relax_sim.Engine.schedule engine ~delay:t_crash (fun () ->
        for s = n - down to n - 1 do
          Relax_sim.Network.crash net s
        done);
    Relax_sim.Engine.schedule engine ~delay:t_recover (fun () ->
        for s = n - down to n - 1 do
          Relax_sim.Network.recover net s
        done)
  end

let quantile_exn hist q =
  match Relax_obs.Metrics.Histogram.quantile hist q with
  | Some v -> v
  | None -> nan

(* Run one lattice point at load.  [jobs] bounds the domains used for
   the shard fan-out; everything except [wall_s]/[ops_per_sec] is
   deterministic in (params, point). *)
let run_point ?jobs ~(params : params) (point : Taxi.point) =
  if params.ops < 0 then invalid_arg "Load.run_point: negative ops";
  if params.shards <= 0 then invalid_arg "Load.run_point: shards must be positive";
  if params.rate <= 0.0 then invalid_arg "Load.run_point: rate must be positive";
  if params.closed && params.concurrency <= 0 then
    invalid_arg "Load.run_point: closed loop needs positive concurrency";
  let per_shard i =
    (params.ops / params.shards)
    + if i < params.ops mod params.shards then 1 else 0
  in
  let horizon = float_of_int (per_shard 0) /. params.rate in
  let t_start = Unix.gettimeofday () in
  let sharded =
    Relax_sim.Shard.create ~seed:params.seed ~shards:params.shards
      (fun i engine ->
        let net =
          Relax_sim.Network.create engine ~sites:params.sites
            ~drop_probability:params.drop
        in
        let sh =
          {
            net;
            client_rng = Relax_sim.Rng.split (Relax_sim.Engine.rng engine);
            hist = Relax_obs.Metrics.Histogram.create ~bounds:latency_bounds ();
            arrived = 0;
            completed = 0;
            unavailable = 0;
          }
        in
        (if params.closed then closed_clients else arrivals)
          engine sh ~params ~assignment:point.Taxi.assignment
          ~n_ops:(per_shard i);
        if params.crash then schedule_crash_window engine net ~horizon;
        sh)
  in
  let per_shard_results =
    Relax_sim.Shard.run ?jobs sharded (fun _ engine sh ->
        (sh, Relax_sim.Engine.executed_events engine))
  in
  let wall_s = Unix.gettimeofday () -. t_start in
  let hist = Relax_obs.Metrics.Histogram.create ~bounds:latency_bounds () in
  let arrived = ref 0
  and completed = ref 0
  and unavailable = ref 0
  and events = ref 0 in
  List.iter
    (fun (sh, ev) ->
      arrived := !arrived + sh.arrived;
      completed := !completed + sh.completed;
      unavailable := !unavailable + sh.unavailable;
      events := !events + ev;
      Relax_obs.Metrics.Histogram.merge_into ~dst:hist sh.hist)
    per_shard_results;
  let count = Relax_obs.Metrics.Histogram.count hist in
  {
    label = point.Taxi.label;
    ops = !arrived;
    completed = !completed;
    unavailable = !unavailable;
    availability =
      (if !arrived = 0 then 1.0
       else float_of_int !completed /. float_of_int !arrived);
    p50 = quantile_exn hist 0.5;
    p99 = quantile_exn hist 0.99;
    p999 = quantile_exn hist 0.999;
    mean_latency =
      (if count = 0 then nan
       else Relax_obs.Metrics.Histogram.sum hist /. float_of_int count);
    events = !events;
    wall_s;
    ops_per_sec =
      (if wall_s <= 0.0 then 0.0 else float_of_int !arrived /. wall_s);
  }

(* The full sweep: every lattice point under the identical workload. *)
let run ?jobs ~params () =
  List.map (run_point ?jobs ~params) (Taxi.points ~n:params.sites)

(* JSON for the CI artifact: the SLO fields are deterministic and
   diffable; wall-clock fields are included but meant to be stripped by
   the comparison (jq keeps [availability]/percentile fields only). *)
let json_of_outcomes outcomes =
  let field name v = Printf.sprintf "\"%s\":%s" name v in
  let num f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f in
  let one o =
    "{"
    ^ String.concat ","
        [
          field "label" Relax_obs.Attr.(value_to_json (Str o.label));
          field "ops" (string_of_int o.ops);
          field "completed" (string_of_int o.completed);
          field "unavailable" (string_of_int o.unavailable);
          field "availability" (Printf.sprintf "%.6f" o.availability);
          field "p50" (num o.p50);
          field "p99" (num o.p99);
          field "p999" (num o.p999);
          field "mean_latency" (num o.mean_latency);
          field "events" (string_of_int o.events);
          field "wall_s" (Printf.sprintf "%.3f" o.wall_s);
          field "ops_per_sec" (Printf.sprintf "%.0f" o.ops_per_sec);
        ]
    ^ "}"
  in
  "{\"version\":1,\"points\":["
  ^ String.concat "," (List.map one outcomes)
  ^ "]}\n"
