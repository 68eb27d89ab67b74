open Relax_parallel

(* Direct coverage for the domain pool: ordering, caller participation,
   exception propagation, pool reuse across generations, nested maps,
   and the jobs-resolution knobs.  The pool is process-global, so these
   tests mind the order in which they touch the default-jobs override. *)

exception Boom of int

let pool_tests =
  [
    Alcotest.test_case "results come back in input order" `Quick (fun () ->
        let inputs = List.init 100 Fun.id in
        Alcotest.(check (list int))
          "squares in order"
          (List.map (fun x -> x * x) inputs)
          (Pool.map ~jobs:4 (fun x -> x * x) inputs));
    Alcotest.test_case "empty and singleton inputs" `Quick (fun () ->
        Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 Fun.id []);
        Alcotest.(check (list int))
          "singleton" [ 7 ]
          (Pool.map ~jobs:4 Fun.id [ 7 ]));
    Alcotest.test_case "caller participates in the drain" `Quick (fun () ->
        (* [map ~jobs:2] spawns one pool worker and drains the rest on
           the calling domain.  Two tasks that each wait for the other
           to start can only both finish if two domains run them — so
           completing (each having seen the other) proves the caller
           took one.  A deadline turns a would-be deadlock into a
           failure instead of a hang. *)
        let started = Atomic.make 0 in
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rendezvous _ =
          Atomic.incr started;
          let rec wait () =
            if Atomic.get started >= 2 then true
            else if Unix.gettimeofday () > deadline then false
            else begin
              Domain.cpu_relax ();
              wait ()
            end
          in
          (wait (), Domain.is_main_domain ())
        in
        let results = Pool.map ~jobs:2 rendezvous [ 0; 1 ] in
        Alcotest.(check bool)
          "both tasks overlapped" true
          (List.for_all fst results);
        Alcotest.(check int)
          "exactly one ran on the main domain" 1
          (List.length (List.filter snd results)));
    Alcotest.test_case "a narrow map admits jobs-1 workers of a wider pool"
      `Quick (fun () ->
        (* [map ~jobs:4] leaves three workers parked; a later
           [map ~jobs:2] wakes them all but must admit only one.  Each
           task waits until two have started, so at least two domains
           run them, and long enough that any extra woken worker would
           claim one too. *)
        ignore (Pool.map ~jobs:4 Fun.id [ 0; 1; 2; 3 ]);
        let started = Atomic.make 0 in
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rendezvous _ =
          Atomic.incr started;
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          Unix.sleepf 0.002;
          (Domain.self () :> int)
        in
        let domains = Pool.map ~jobs:2 rendezvous (List.init 16 Fun.id) in
        Alcotest.(check int)
          "distinct domains" 2
          (List.length (List.sort_uniq compare domains)));
    Alcotest.test_case "every task runs exactly once" `Quick (fun () ->
        let hits = Array.init 64 (fun _ -> Atomic.make 0) in
        ignore
          (Pool.map ~jobs:4 (fun i -> Atomic.incr hits.(i)) (List.init 64 Fun.id));
        Array.iteri
          (fun i h -> Alcotest.(check int) (Fmt.str "task %d" i) 1 (Atomic.get h))
          hits);
    Alcotest.test_case "exceptions propagate in input order" `Quick (fun () ->
        (* Two tasks fail; the caller must see the earliest input's
           exception regardless of which domain hit which first. *)
        match
          Pool.map ~jobs:4
            (fun i -> if i = 2 || i = 5 then raise (Boom i) else i)
            (List.init 8 Fun.id)
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom i -> Alcotest.(check int) "earliest failure" 2 i);
    Alcotest.test_case "failed batch does not poison the pool" `Quick
      (fun () ->
        (try ignore (Pool.map ~jobs:4 (fun _ -> raise Exit) [ 1; 2; 3 ])
         with Exit -> ());
        Alcotest.(check (list int))
          "next map is clean" [ 2; 4; 6 ]
          (Pool.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ]));
    Alcotest.test_case "pool survives many generations" `Quick (fun () ->
        (* Each map bumps the generation and re-parks the workers; the
           wake/park protocol must not lose batches or duplicate work. *)
        for round = 1 to 50 do
          let got = Pool.map ~jobs:3 (fun x -> x + round) [ 1; 2; 3; 4; 5 ] in
          Alcotest.(check (list int))
            (Fmt.str "round %d" round)
            (List.map (fun x -> x + round) [ 1; 2; 3; 4; 5 ])
            got
        done);
    Alcotest.test_case "growing jobs grows the pool" `Quick (fun () ->
        Alcotest.(check (list int))
          "narrow" [ 1; 2 ]
          (Pool.map ~jobs:2 Fun.id [ 1; 2 ]);
        Alcotest.(check (list int))
          "wider than before" (List.init 20 Fun.id)
          (Pool.map ~jobs:6 Fun.id (List.init 20 Fun.id)));
    Alcotest.test_case "nested map degrades to sequential" `Quick (fun () ->
        let got =
          Pool.map ~jobs:3
            (fun x ->
              (* runs on a worker domain: inner map must not deadlock *)
              List.fold_left ( + ) 0 (Pool.map ~jobs:3 Fun.id (List.init x Fun.id)))
            [ 3; 4; 5 ]
        in
        Alcotest.(check (list int)) "nested sums" [ 3; 6; 10 ] got);
    Alcotest.test_case "jobs default resolution" `Quick (fun () ->
        Pool.set_default_jobs 3;
        Alcotest.(check int) "override wins" 3 (Pool.default_jobs ());
        Alcotest.(check bool)
          "set_default_jobs rejects zero" true
          (match Pool.set_default_jobs 0 with
          | () -> false
          | exception Invalid_argument _ -> true);
        Alcotest.(check (list int))
          "maps under the default" [ 0; 1; 2; 3 ]
          (Pool.map Fun.id [ 0; 1; 2; 3 ]));
  ]

let () = Alcotest.run "parallel" [ ("pool", pool_tests) ]
