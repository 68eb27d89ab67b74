(* Regenerates the committed golden trace exports:
     dune exec test/gen_golden/gen_golden.exe -- [dir]
   writes trace_chaos_small.jsonl, debug_script.txt and
   check_all_depth5.txt (default dir: test/golden).  Must stay in
   lockstep with the trace-producing fixtures in test_obs.ml and the
   registry fixture in test_claims.ml — the golden tests there compare
   these files byte-for-byte against fresh output at jobs 1 and 4. *)

open Relax_obs

let small_chaos_config =
  {
    Relax_chaos.Runner.default_config with
    sites = 3;
    requests = 4;
    gossip_every = 2;
    seed = 42;
  }

let chaos_trace () =
  let module X = Relax_experiments.Chaos_scenarios in
  let tracer = Tracer.create () in
  Tracer.Ambient.with_tracer tracer (fun () ->
      match
        X.make_trace ~point:"top" ~nemeses:X.default_nemeses
          ~config:small_chaos_config
      with
      | Error e -> failwith e
      | Ok trace -> (
        match X.run_trace trace with Error e -> failwith e | Ok _ -> ()));
  Export.to_string Export.Jsonl (Export.sort (Tracer.events tracer))

(* A scripted time-travel session over a small recover-point run — the
   same fixture test_experiments.ml replays.  The script walks the
   timeline forwards and backwards and inspects the frontier and the
   in-flight copies at several cursors, so the golden transcript pins
   both stepping directions. *)
let debug_script_lines =
  [ "i"; "n 5"; "f"; "p"; "b 2"; "f"; "g 0"; "l"; "n 200"; "q" ]

let debug_transcript () =
  let module X = Relax_experiments.Chaos_scenarios in
  let module D = Relax_experiments.Debug in
  let config = { small_chaos_config with seed = 7 } in
  match
    X.make_trace ~point:"recover" ~nemeses:X.default_nemeses ~config
  with
  | Error e -> failwith e
  | Ok trace -> (
    match D.session_of_trace trace with
    | Error e -> failwith e
    | Ok session ->
      let script = Filename.temp_file "rlx-debug" ".script" in
      let oc = open_out script in
      List.iter (fun l -> output_string oc (l ^ "\n")) debug_script_lines;
      close_out oc;
      Fun.protect
        ~finally:(fun () -> Sys.remove script)
        (fun () ->
          let buf = Buffer.create 4096 in
          let ppf = Format.formatter_of_buffer buf in
          D.run_script ppf session script;
          Format.pp_print_flush ppf ();
          Buffer.contents buf))

(* The full catalog at the transcript's depth, rendered exactly as
   test_claims.ml renders it. *)
let check_all_depth5 () =
  let registry =
    Relax_experiments.Catalog.registry ~depth:5
      ~strategy:Relax_proof.Strategy.Auto ()
  in
  let results = Relax_claims.Engine.run registry in
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  Relax_claims.Reporter.pp Relax_claims.Reporter.Human ppf results;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let write path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length s)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  Relax_parallel.Pool.set_default_jobs 1;
  write (Filename.concat dir "trace_chaos_small.jsonl") (chaos_trace ());
  write (Filename.concat dir "debug_script.txt") (debug_transcript ());
  write (Filename.concat dir "check_all_depth5.txt") (check_all_depth5 ())
