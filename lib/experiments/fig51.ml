(* Experiment F5-1: regenerate the paper's Figure 5-1 summary chart, with
   the "Cost" column backed by measurements from the three case studies
   rather than by prose:

     - the priority queue's cost is availability: measured as the exact
       Deq availability of the preferred assignment at p(up)=0.9 versus
       the fully relaxed one;
     - the account's cost is latency: measured as the spurious-bounce rate
       at zero think time versus after propagation;
     - the FIFO queue's cost is concurrency: measured as the number of
       dequeue attempts the locking policy blocks versus optimistic. *)

type row = {
  correctness : string;
  preferred : string;
  constraints : string;
  cost : string;
  events : string;
  measured : string;
}

(* Deq availability at p(up) = 0.9 of the X-deg point named [name]. *)
let deq_avail name =
  Availability.op_availability (Taxi.point ~n:5 name).Taxi.assignment ~p:0.9
    Relax_objects.Queue_ops.deq_name

let rows () =
  (* availability measurement *)
  let preferred_avail = deq_avail "top" in
  let relaxed_avail = deq_avail "bottom" in
  (* latency / premature-debit measurement *)
  let bounce_now =
    Atm.run_once ~relax_a2:false ~think_time:0.0 ()
  in
  let bounce_later =
    Atm.run_once ~relax_a2:false ~think_time:150.0 ()
  in
  (* concurrency measurement *)
  let locking = Spooler.run_one Relax_txn.Spool.Locking ~k:3 in
  let optimistic = Spooler.run_one Relax_txn.Spool.Optimistic ~k:3 in
  [
    {
      correctness = "One-copy serializability";
      preferred = "Priority Queue";
      constraints = "Quorum intersection";
      cost = "Availability";
      events = "Failures, crashes";
      measured =
        Fmt.str "Deq avail @p=0.9: %.3f preferred vs %.3f relaxed"
          preferred_avail relaxed_avail;
    };
    {
      correctness = "One-copy serializability";
      preferred = "Account";
      constraints = "Quorum intersection";
      cost = "Latency";
      events = "Premature Debits";
      measured =
        Fmt.str "spurious bounces: %d at t=0 vs %d after propagation"
          bounce_now.Atm.spurious_bounces bounce_later.Atm.spurious_bounces;
    };
    {
      correctness = "Atomicity";
      preferred = "FIFO Queue";
      constraints = "Concurrent Deq's";
      cost = "Concurrency";
      events = "Deq, commit, abort";
      measured =
        Fmt.str "blocked deq attempts: %d locking vs %d optimistic"
          locking.Spooler.blocked optimistic.Spooler.blocked;
    };
  ]

let run ppf () =
  let rows = rows () in
  Fmt.pf ppf "== Figure 5-1: summary chart (measured costs) ==@\n";
  Fmt.pf ppf "%-26s %-16s %-20s %-13s %-20s %s@\n" "Correctness condition"
    "Preferred" "Constraints" "Cost" "Events" "Measured";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-26s %-16s %-20s %-13s %-20s %s@\n" r.correctness
        r.preferred r.constraints r.cost r.events r.measured)
    rows;
  (* the measured trade-off directions must match the paper's narrative *)
  let availability_direction = deq_avail "bottom" >= deq_avail "top" in
  let bounce_now = Atm.run_once ~relax_a2:false ~think_time:0.0 () in
  let bounce_later = Atm.run_once ~relax_a2:false ~think_time:150.0 () in
  let latency_direction =
    bounce_later.Atm.spurious_bounces <= bounce_now.Atm.spurious_bounces
  in
  let locking = Spooler.run_one Relax_txn.Spool.Locking ~k:3 in
  let optimistic = Spooler.run_one Relax_txn.Spool.Optimistic ~k:3 in
  let concurrency_direction = locking.Spooler.blocked > optimistic.Spooler.blocked in
  Fmt.pf ppf
    "trade-off directions (availability, latency, concurrency): %b %b %b@\n"
    availability_direction latency_direction concurrency_direction;
  availability_direction && latency_direction && concurrency_direction
