(* A persistent domain pool for independent work items.

   The checkers, Monte Carlo estimators, and the sharded simulation
   engine fan independent tasks out over OCaml 5 domains.  Results are
   always collected in input order and every task runs exactly once, so
   callers observe the same answers no matter how many domains execute
   them; determinism is the caller's only obligation (tasks must not
   share mutable state, which in this repository means every task
   constructs its own automata or engines).

   Workers are spawned once, lazily, and parked on a condition variable
   between calls — [Domain.spawn] costs hundreds of microseconds, which
   an inner loop issuing thousands of small [map]s (the sharded engine's
   round loop) cannot afford per call.  A [map] publishes a batch under
   the mutex, bumps a generation counter to wake the workers, and the
   caller participates as worker 0, so [map ~jobs:n] uses [n-1] pool
   domains: the batch carries that many admission tickets, and a woken
   worker that finds none left parks again without touching the tasks
   (the pool may hold more workers than this call asked for).  The pool
   grows on demand when a call asks for more parallelism than any
   before it, and is torn down from [at_exit].

   Nested calls run sequentially: a worker domain that itself calls [map]
   gets a plain [List.map], so parallel checks that internally use
   parallel estimators do not multiply domains.  So does a call made
   while the calling domain has an ambient tracer installed: the tracer
   is per-domain, so tasks on pool workers would record nothing, and a
   traced run must record every task's events in input order at any
   [jobs]. *)

let jobs_env = "RLX_JOBS"

let override = ref None

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs";
  override := Some n

let default_jobs () =
  match !override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt jobs_env with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ())

let map_seq f l = List.map f l

(* One batch of work, published to the workers under [lock].  Tasks are
   pre-wrapped as [unit -> unit] closures that write their own result
   slot, so workers need no knowledge of the element types. *)
type batch = {
  tasks : (unit -> unit) array;
  seats : int Atomic.t; (* pool workers still admitted to this batch *)
  next : int Atomic.t; (* next task index to claim *)
  left : int Atomic.t; (* tasks not yet finished *)
  done_ : Mutex.t;
  all_done : Condition.t;
}

type pool = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable generation : int; (* bumped per published batch *)
  mutable current : batch option;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list; (* parked workers *)
  mutable size : int; (* List.length domains *)
}

let pool =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    generation = 0;
    current = None;
    shutdown = false;
    domains = [];
    size = 0;
  }

(* Claim-and-run loop over a batch; shared by pool workers and the
   calling domain. *)
let drain (b : batch) =
  let n = Array.length b.tasks in
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      b.tasks.(i) ();
      if Atomic.fetch_and_add b.left (-1) = 1 then begin
        (* last task out signals the caller *)
        Mutex.lock b.done_;
        Condition.broadcast b.all_done;
        Mutex.unlock b.done_
      end;
      loop ()
    end
  in
  loop ()

(* A parked worker: wait for the generation to move, drain the published
   batch, park again.  A worker domain starts with no ambient tracer (it
   is per-domain state) and only ever runs tasks of untraced calls. *)
let worker_main () =
  let seen = ref 0 in
  let rec park () =
    Mutex.lock pool.lock;
    while (not pool.shutdown) && pool.generation = !seen do
      Condition.wait pool.wake pool.lock
    done;
    let job =
      if pool.shutdown then None
      else begin
        seen := pool.generation;
        pool.current
      end
    in
    Mutex.unlock pool.lock;
    match job with
    | None -> if not pool.shutdown then park ()
    | Some b ->
      if Atomic.fetch_and_add b.seats (-1) > 0 then drain b;
      park ()
  in
  park ()

let shutdown () =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.wake;
  let domains = pool.domains in
  pool.domains <- [];
  pool.size <- 0;
  Mutex.unlock pool.lock;
  List.iter Domain.join domains

let installed_at_exit = ref false

(* Grow the pool (under no batch) to at least [n] parked workers. *)
let ensure_size n =
  if pool.size < n then begin
    Mutex.lock pool.lock;
    if not !installed_at_exit then begin
      installed_at_exit := true;
      at_exit shutdown
    end;
    while pool.size < n && not pool.shutdown do
      pool.domains <- Domain.spawn worker_main :: pool.domains;
      pool.size <- pool.size + 1
    done;
    Mutex.unlock pool.lock
  end

let map ?jobs f l =
  let n = List.length l in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  if
    jobs <= 1 || n <= 1
    || (not (Domain.is_main_domain ()))
    || Relax_obs.Tracer.Ambient.active ()
  then map_seq f l
  else begin
    let inputs = Array.of_list l in
    let results = Array.make n None in
    let tasks =
      Array.init n (fun i ->
          fun () ->
            results.(i) <-
              (match f inputs.(i) with
              | v -> Some (Ok v)
              | exception e ->
                Some (Error (e, Printexc.get_raw_backtrace ()))))
    in
    let b =
      {
        tasks;
        seats = Atomic.make (jobs - 1);
        next = Atomic.make 0;
        left = Atomic.make n;
        done_ = Mutex.create ();
        all_done = Condition.create ();
      }
    in
    ensure_size (jobs - 1);
    Mutex.lock pool.lock;
    pool.current <- Some b;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    (* the caller is worker 0 *)
    drain b;
    Mutex.lock b.done_;
    while Atomic.get b.left > 0 do
      Condition.wait b.all_done b.done_
    done;
    Mutex.unlock b.done_;
    Mutex.lock pool.lock;
    pool.current <- None;
    Mutex.unlock pool.lock;
    (* surface the first failure in input order *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end
