(* rlx — the relaxation-lattice toolkit command line.

   Every experiment of EXPERIMENTS.md is reachable from here:

     rlx check [all]      run every registered claim (default)
     rlx check <group>    one claim group (pq, collapses, account, prob,
                          fig42, availability, taxi, chaos, ldfi,
                          degrade, relax, atm, spooler, markov, fifo)
     rlx check list       list every claim id in the registry
     rlx check --only 'pq/*'         select claims by id glob
     rlx check all --format json     machine-readable verdicts (or tap)
     rlx figure 4-2       regenerate Figure 4-2
     rlx figure 5-1       regenerate Figure 5-1 with measured costs
     rlx simulate taxi    the taxi-dispatch case study
     rlx simulate adaptive  Section 2.3's combined automaton, live
     rlx simulate partition majority/minority network split
     rlx simulate amnesia   stable storage as a load-bearing assumption
     rlx simulate atm     the bank-account case study
     rlx simulate spooler the print-spooler case study
     rlx simulate ... --seed S   reseed any simulation's fault trace
     rlx chaos run --runs N --seed S --nemesis LIST
                          searched lattice conformance under composed
                          fault injection; violations shrink to minimal
                          replayable traces
     rlx chaos replay FILE  deterministically replay a recorded trace
     rlx chaos list       the known lattice points and nemeses
     rlx ldfi run         lineage-driven fault injection: exhaustive
                          fault coverage within a failure budget, or a
                          shrunken counterexample
     rlx ldfi hunt        guided vs random executions-to-violation on
                          the planted volatile-logs bug
     rlx ldfi report FILE re-render a recorded coverage document
     rlx degrade run      one controller-vs-static comparison with the
                          mode-switch timeline
     rlx degrade sweep    seeded degradation sweeps: availability uplift
                          vs static points, online conformance, bounded
                          switching
     rlx simulate taxi --timeout 80 --retries 3 --backoff 4
                          override the client knobs of any simulation
     rlx availability     availability of every lattice point
     rlx compare PQ MPQ   Section 5's comparison of specifications
     rlx trait ...        inspect/normalize the standard traits
     rlx trace simulate taxi --trace-out t.json
                          record a Perfetto-loadable trace of a run
     rlx trace chaos top  trace one chaos run at a lattice point
     rlx profile check --only 'pq/*'
                          per-claim wall clock + checker stats as JSON
     rlx ... --trace-out FILE
                          simulate/check/chaos also trace in place
*)

open Cmdliner

let out = Fmt.stdout

let exit_of b = if b then 0 else 1

(* A usage error (an unknown name, an unreadable input) is one line on
   stderr and exit code 2. *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      2)
    fmt

let apply_jobs jobs = Option.iter Relax_parallel.Pool.set_default_jobs jobs

(* The "a | b | c" lists of help texts and error messages. *)
let alts = String.concat " | "

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

(* --- tracing -------------------------------------------------------- *)

(* The export format is picked by extension: .jsonl gives line-diffable
   JSON lines (the golden-trace format), anything else the Chrome
   trace_event JSON that Perfetto and chrome://tracing load. *)
let trace_format_of_path path =
  if Filename.check_suffix path ".jsonl" then Relax_obs.Export.Jsonl
  else Relax_obs.Export.Chrome

(* The note goes to stderr so stdout stays clean for --format json etc. *)
let write_trace path tracer =
  Relax_obs.Export.write_file path (trace_format_of_path path)
    (Relax_obs.Tracer.events tracer);
  Fmt.epr "trace: %d events written to %s@."
    (Relax_obs.Tracer.event_count tracer)
    path

let print_table tracer =
  Fmt.pr "%a"
    (Relax_obs.Export.pp Relax_obs.Export.Table)
    (Relax_obs.Export.sort (Relax_obs.Tracer.events tracer))

(* Run [f] with an ambient tracer installed when --trace-out was given.
   With [~table] (the `rlx trace` subcommands) it is always traced, and
   without --trace-out the aggregated table goes to stdout. *)
let with_trace ?(table = false) trace_out f =
  if trace_out = None && not table then f ()
  else
    let tracer = Relax_obs.Tracer.create () in
    let code = Relax_obs.Tracer.Ambient.with_tracer tracer f in
    (match trace_out with
    | Some path -> write_trace path tracer
    | None -> print_table tracer);
    code

(* --- the shared flag vocabulary ------------------------------------- *)

(* A flag that means the same thing in several subcommands is declared
   once, below: its names, aliases and docv live here, and each
   subcommand supplies only its default and its doc.  Where an
   experiment keeps its own historical value when the flag is absent,
   the converter is [Arg.some c] and the default [None]. *)
let shared names docv c default ~doc =
  Arg.(value & opt c default & info names ~docv ~doc)

(* A count that must be positive is refused at parse time (exit 124),
   instead of reaching the library's invalid_arg as an uncaught
   exception or running an empty workload. *)
let positive conv zero what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok n when n > zero -> Ok n
    | Ok _ -> Error (`Msg ("expected a positive " ^ what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = positive Arg.int 0
let positive_float = positive Arg.float 0.0

let depth_arg =
  let doc =
    "Exploration depth for the bounded-enumeration fallback of language \
     checks (and the default enqueue budget of simulation proofs).  \
     Claims proved by a certified simulation hold at any depth; $(opt) \
     only bounds the claims that fall back to enumeration."
  in
  Arg.(value & opt int 7 & info [ "depth"; "d" ] ~doc)

let method_arg =
  let doc =
    "Proof method for language claims: $(b,auto) (default — synthesize a \
     forward-simulation proof, fall back to bounded enumeration), \
     $(b,sim) (same pipeline, insisting on simulation; fallbacks are \
     visible as bounded verdicts) or $(b,enum) (bounded enumeration \
     only, the legacy checkers)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Relax_proof.Strategy.Auto);
             ("sim", Relax_proof.Strategy.Simulation);
             ("enum", Relax_proof.Strategy.Bounded_enum);
           ])
        Relax_proof.Strategy.Auto
    & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let jobs_arg =
  shared [ "jobs"; "j" ] "N"
    Arg.(some (positive_int "number of jobs"))
    None
    ~doc:
      "Number of domains for parallel fan-out (default: $(b,RLX_JOBS) or \
       the recommended domain count)."

let trace_out_arg =
  shared [ "trace-out" ] "FILE"
    Arg.(some string)
    None
    ~doc:
      "Write a trace of the run to $(docv): Chrome trace_event JSON \
       (loadable in Perfetto or chrome://tracing), or JSON lines when \
       $(docv) ends in $(b,.jsonl)."

let seed_arg c = shared [ "seed"; "s" ] "SEED" c
let run_seed_arg = seed_arg Arg.int Relax_sim.Engine.default_seed
let runs_arg = shared [ "runs"; "n" ] "N" Arg.int
let ops_arg = shared [ "ops"; "n" ] "N" Arg.int
let sites_arg c = shared [ "sites" ] "N" c
let point_arg c = shared [ "point" ] "POINT" c
let out_arg = shared [ "out" ] "FILE" Arg.(some string) None

let trace_prefix_arg default =
  shared [ "trace-prefix" ] "PREFIX" Arg.string default
    ~doc:"Filename prefix for shrunken violation traces."

let sim_seed_arg =
  seed_arg Arg.(some int) None
    ~doc:
      "Seed for the simulation's random streams (fault trace, workload, \
       latencies).  Defaults to the experiment's historical seed, so runs \
       without $(opt) are byte-stable."

(* An empty list (the flag's absence) stands for [all]. *)
let list_arg opt_name ~all ~doc =
  let arg =
    Arg.(value & opt (list string) [] & info [ opt_name ] ~docv:"LIST" ~doc)
  in
  Term.(const (function [] -> all | l -> l) $ arg)

let nemesis_arg ~doc =
  list_arg "nemesis" ~all:Relax_experiments.Chaos_scenarios.default_nemeses
    ~doc

let nemesis_names = alts (List.map fst Relax_chaos.Nemesis.known)

let scenario_names = alts Relax_experiments.Chaos_scenarios.names

let points_arg ~verb =
  let doc =
    Fmt.str "Comma-separated lattice points to %s (%s).  Defaults to all." verb
      scenario_names
  in
  list_arg "points" ~all:Relax_experiments.Chaos_scenarios.names ~doc

(* The POINT positional; [kind] as for [file_arg]. *)
let point_pos kind c default ~what =
  let doc = Fmt.str "%s (%s)." what scenario_names in
  Arg.(kind & pos 0 c default & info [] ~docv:"POINT" ~doc)

(* [kind] is [Arg.required] or, where the file is optional, [Arg.value]. *)
let file_arg kind ~doc =
  Arg.(kind & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let what_arg ~doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WHAT" ~doc)

let group_arg ~doc =
  Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc)

let format_arg choices ~doc =
  Arg.(
    value
    & opt (enum choices) (snd (List.hd choices))
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let only_arg =
  let doc =
    "Only run claims whose id matches $(docv) ($(b,*) matches any \
     substring), e.g. $(b,--only 'pq/*') or $(b,--only '*/monotone')."
  in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"GLOB" ~doc)

(* The replica client's knobs, exposed uniformly on `rlx simulate`,
   `rlx chaos run`, `rlx degrade` and `rlx ldfi`.  Left unset they keep
   each experiment's historical values, so default runs stay
   byte-stable. *)
type knobs = {
  timeout : float option;
  retries : int option;
  backoff : float option;
}

let no_knobs = { timeout = None; retries = None; backoff = None }

let knobs_arg =
  let timeout =
    let doc =
      "Per-attempt quorum timeout, in engine time units.  Defaults to the \
       experiment's historical value."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"TIME" ~doc)
  and retries =
    let doc =
      "Retry budget per operation (attempts after the first).  Defaults to \
       the replica runtime's value."
    in
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)
  and backoff =
    let doc =
      "Base retry backoff in engine time units, doubled on each further \
       attempt and jittered deterministically per seed.  Defaults to the \
       replica runtime's value."
    in
    Arg.(value & opt (some float) None & info [ "backoff" ] ~docv:"TIME" ~doc)
  in
  Term.(
    const (fun timeout retries backoff -> { timeout; retries; backoff })
    $ timeout $ retries $ backoff)

(* One Runner.config: the knobs, LDFI's workload size and a simulation's
   seed, folded over [base] (an unset flag keeps the base's value). *)
let configure ?sites ?requests ?seed knobs (base : Relax_chaos.Runner.config) =
  let ( |? ) o d = Option.value o ~default:d in
  {
    base with
    sites = sites |? base.sites;
    requests = requests |? base.requests;
    seed = seed |? base.seed;
    timeout = knobs.timeout |? base.timeout;
    retries = knobs.retries |? base.retries;
    backoff = knobs.backoff |? base.backoff;
  }

(* A command's exit table: what 0 and 1 mean for it, 2 where it
   documents its usage errors, then cmdliner's own codes. *)
let exits ?usage ok failed =
  Cmd.Exit.info ~doc:ok 0
  :: Cmd.Exit.info ~doc:failed 1
  :: (match usage with Some doc -> [ Cmd.Exit.info ~doc 2 ] | None -> [])
  @ List.filter (fun i -> Cmd.Exit.info_code i > 2) Cmd.Exit.defaults

(* --- rlx check / figure / simulate ---------------------------------- *)

(* The check command is entirely registry-driven: group dispatch, the
   unknown-check hint and the listing all derive from the claim catalog,
   so a new group registers itself everywhere at once.  Claims are fanned
   out over domains by the engine and rendered by the selected reporter;
   the human format is byte-identical to the historical output at any
   degree of parallelism. *)
(* Group/glob selection shared by check, profile check and trace check. *)
let select_registry what only depth strategy =
  let module R = Relax_claims.Registry in
  let registry = Relax_experiments.Catalog.registry ~depth ~strategy () in
  let known = R.group_ids registry in
  if what <> "all" && not (List.mem what known) then
    Error
      (Fmt.str "unknown check %S (expected %s | all | list)" what (alts known))
  else
    let selected =
      let by_group =
        if what = "all" then registry
        else R.select registry ~pattern:(what ^ "/*")
      in
      match only with
      | None -> by_group
      | Some pattern -> R.select by_group ~pattern
    in
    if R.all_claims selected = [] then
      Error
        (match only with
        | Some pattern ->
          Fmt.str "no claims match --only %S (see 'rlx check list')" pattern
        | None -> "no claims selected")
    else Ok selected

(* Claims fan out over domains, so a claim run's trace is synthesized
   from the measured outcomes (Engine.record_trace) instead of recorded
   ambiently: durations are wall clock, stats are the deterministic
   memo/product counters.  [report] renders the results on stdout;
   [table] prints the span table when no --trace-out is given (trace
   check). *)
let run_claims ?report ~table what only depth strategy jobs trace_out =
  apply_jobs jobs;
  match select_registry what only depth strategy with
  | Error e -> usage_error "%s" e
  | Ok selected ->
    let results = Relax_claims.Engine.run selected in
    if table || trace_out <> None then begin
      let tracer = Relax_obs.Tracer.create () in
      Relax_claims.Engine.record_trace tracer results;
      match trace_out with
      | Some path -> write_trace path tracer
      | None -> print_table tracer
    end;
    Option.iter (fun f -> Relax_claims.Reporter.pp f out results) report;
    exit_of (Relax_claims.Engine.ok results)

let run_check what only format depth strategy jobs trace_out =
  let module R = Relax_claims.Registry in
  let module C = Relax_claims.Claim in
  if what = "list" then begin
    let registry = Relax_experiments.Catalog.registry ~depth ~strategy () in
    List.iter
      (fun (g : R.group) ->
        Fmt.pr "%s — %s@." g.R.gid g.R.title;
        List.iter
          (fun (c : C.t) ->
            Fmt.pr "  %-32s %-17s %s  [%s]@." c.C.id
              (C.kind_to_string c.C.kind)
              c.C.description c.C.paper)
          g.R.claims)
      (R.groups registry);
    0
  end
  else
    run_claims ~report:format ~table:false what only depth strategy jobs
      trace_out

(* The trait/interface figures print their checked sources; 4-2 and 5-1
   are regenerated from the lattice machinery and the case studies. *)
let run_figure which =
  let show_trait src =
    Fmt.pr "%a@." Relax_larch.Printer.pp_trait
      (Relax_larch.Parser.trait_of_string src);
    0
  in
  let show_iface src =
    Fmt.pr "%a@." Relax_larch.Printer.pp_iface
      (Relax_larch.Parser.iface_of_string src);
    0
  in
  match which with
  | "2-1" -> show_trait Relax_larch.Theories.bag_src
  | "2-2" -> show_iface Relax_larch.Theories.bag_iface_src
  | "2-3" -> show_trait Relax_larch.Theories.fifoq_src
  | "2-4" -> show_iface Relax_larch.Theories.fifo_iface_src
  | "3-1" -> show_trait Relax_larch.Theories.pqueue_src
  | "3-2" -> show_iface Relax_larch.Theories.pqueue_iface_src
  | "3-3" -> show_iface Relax_larch.Theories.mpq_iface_src
  | "3-4" -> show_iface Relax_larch.Theories.bag_iface_src
  | "3-5" -> show_iface Relax_larch.Theories.degen_iface_src
  | "4-1" -> show_iface (Relax_larch.Theories.semiqueue_iface_src ~k:2)
  | "4-3" -> show_iface (Relax_larch.Theories.stuttering_iface_src ~j:2)
  | "4-2" -> exit_of (Relax_experiments.Fig42.run out ())
  | "5-1" -> exit_of (Relax_experiments.Fig51.run out ())
  | other ->
    usage_error
      "unknown figure %S (expected 2-1..2-4 | 3-1..3-5 | 4-1..4-3 | 5-1)" other

(* Every simulation accepts --seed: the experiments default to their
   historical seeds, so a bare `rlx simulate X` is byte-stable, while
   --seed reseeds the whole fault trace (amnesia and spooler sweep a
   window of consecutive seeds starting at the given one).  The chaos
   case studies take the knobs and the seed over their own config. *)
let simulations =
  let module E = Relax_experiments in
  let window n = Option.map (fun s -> List.init n (fun i -> s + i)) in
  [
    ( "taxi",
      fun knobs ppf seed ->
        E.Taxi.run ~config:(configure ?seed knobs E.Taxi.default_config) ppf ()
    );
    ( "partition",
      fun { timeout; retries; backoff } ppf seed ->
        E.Partition.run ?seed ?timeout ?retries ?backoff ppf () );
    ( "adaptive",
      fun knobs ppf seed ->
        E.Adaptive.run
          ~config:(configure ?seed knobs E.Adaptive.default_config)
          ppf () );
    ( "amnesia",
      fun knobs ppf seed ->
        E.Amnesia.run
          ~config:(configure ?seed knobs E.Amnesia.default_config)
          ppf () );
    ( "atm",
      fun { timeout; retries; backoff } ppf seed ->
        let params =
          Option.map (fun seed -> { E.Atm.default_params with seed }) seed
        in
        E.Atm.run ?params ?timeout ?retries ?backoff ppf () );
    ( "spooler",
      fun knobs ppf seed ->
        if knobs <> no_knobs then
          Fmt.epr
            "note: --timeout/--retries/--backoff do not apply to the spooler \
             (no replica client)@.";
        E.Spooler.run ?seeds:(window 3 seed) ppf () );
  ]

let simulation_names = alts (List.map fst simulations)

let run_simulate_on knobs ppf which seed =
  match List.assoc_opt which simulations with
  | Some run -> exit_of (run knobs ppf seed)
  | None ->
    usage_error "unknown simulation %S (expected %s)" which simulation_names

let run_simulate which seed knobs trace_out =
  with_trace trace_out (fun () -> run_simulate_on knobs out which seed)

let check_cmd =
  let doc = "Run the registered claim checks." in
  let what =
    let groups =
      Relax_claims.Registry.group_ids (Relax_experiments.Catalog.registry ())
    in
    group_arg
      ~doc:
        (Fmt.str
           "What to check: a claim group (%s), $(b,all) (the default), or \
            $(b,list) to list every claim id."
           (alts groups))
  in
  let format =
    format_arg
      Relax_claims.Reporter.[ ("human", Human); ("json", Json); ("tap", Tap) ]
      ~doc:
        "Output format: $(b,human) (the legacy report), $(b,json) (one \
         document with per-claim status, counterexample and checker stats) \
         or $(b,tap) (TAP v14)."
  in
  let exits =
    exits "every selected claim passed." "at least one claim failed or raised."
      ~usage:
        "usage error: unknown check group, or an $(b,--only) glob matching \
         no claim."
  in
  Cmd.v
    (Cmd.info "check" ~doc ~exits)
    Term.(
      const run_check $ what $ only_arg $ format $ depth_arg $ method_arg
      $ jobs_arg $ trace_out_arg)

let figure_cmd =
  let doc =
    "Regenerate a figure of the paper (2-1..2-4 | 3-1..3-5 | 4-1..4-3 | 5-1)."
  in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run_figure $ what_arg ~doc)

let simulate_cmd =
  let doc = Fmt.str "Run a case-study simulation (%s)." simulation_names in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run_simulate $ what_arg ~doc $ sim_seed_arg $ knobs_arg
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* rlx chaos                                                           *)
(* ------------------------------------------------------------------ *)

(* A shrunken violation, saved as PREFIX-KEY.trace. *)
let save_shrunk prefix key trace =
  let path = Fmt.str "%s-%s.trace" prefix key in
  Relax_chaos.Trace.save path trace;
  Fmt.pr "shrunken trace written to %s (replay with 'rlx chaos replay %s')@\n"
    path path

let run_chaos_run runs seed nemeses points jobs no_shrink knobs trace_prefix
    trace_out =
  apply_jobs jobs;
  let module X = Relax_experiments.Chaos_scenarios in
  let config = configure knobs Relax_chaos.Runner.default_config in
  with_trace trace_out @@ fun () ->
  match
    X.sweep ?jobs ~config ~shrink:(not no_shrink) ~runs ~seed ~nemeses ~points
      ()
  with
  | Error e -> usage_error "%s" e
  | Ok report ->
    Fmt.pr "== chaos: %d runs, seed %d, nemeses %s ==@\n" runs seed
      (String.concat "," nemeses);
    Fmt.pr "%a" X.pp_summary report;
    List.iter
      (fun (v : X.violation) ->
        save_shrunk trace_prefix (string_of_int v.report.X.index) v.shrunk)
      report.X.violations;
    Fmt.pr "conformance: %d/%d runs in their predicted language@."
      (List.length report.X.reports - List.length report.X.violations)
      (List.length report.X.reports);
    exit_of (report.X.violations = [])

let load_trace file =
  match Relax_chaos.Trace.load file with
  | trace -> Ok trace
  | exception Sys_error e -> Error ("cannot read trace: " ^ e)
  | exception Relax_chaos.Sexp.Parse_error e ->
    Error (Fmt.str "malformed trace %s: %s" file e)

(* A fresh run of [point] under [nemeses], seeded with [seed]. *)
let generate_trace ~point ~seed ~nemeses =
  let config = { Relax_chaos.Runner.default_config with seed } in
  Relax_experiments.Chaos_scenarios.make_trace ~point ~nemeses ~config

let run_chaos_replay file verbose trace_out =
  let module X = Relax_experiments.Chaos_scenarios in
  with_trace trace_out @@ fun () ->
  match load_trace file with
  | Error e -> usage_error "%s" e
  | Ok trace -> (
    match X.run_trace trace with
    | Error e -> usage_error "%s" e
    | Ok (result, verdict) ->
      if verbose then Fmt.pr "%a@\n" Relax_chaos.Trace.pp trace;
      Fmt.pr "point %s, seed %d: %d completed, %d unavailable, %d retries, \
              %d mode switches@\n"
        trace.Relax_chaos.Trace.point
        trace.Relax_chaos.Trace.config.Relax_chaos.Runner.seed result.Relax_chaos.Runner.completed
        result.Relax_chaos.Runner.unavailable
        result.Relax_chaos.Runner.retries_used
        result.Relax_chaos.Runner.mode_switches;
      Fmt.pr "digest: %s@\n" (Digest.to_hex (Digest.string result.Relax_chaos.Runner.digest));
      Fmt.pr "%a@." Relax_chaos.Oracle.pp verdict;
      exit_of (Relax_chaos.Oracle.conforms verdict))

let run_chaos_list () =
  let module X = Relax_experiments.Chaos_scenarios in
  Fmt.pr "lattice points:@\n";
  List.iter
    (fun (s : X.scenario) -> Fmt.pr "  %-10s %s@\n" s.X.name s.X.description)
    X.all;
  Fmt.pr "nemeses:@\n";
  List.iter
    (fun (name, descr) -> Fmt.pr "  %-10s %s@\n" name descr)
    Relax_chaos.Nemesis.known;
  Fmt.pr "default mix: %s@." (String.concat "," X.default_nemeses);
  0

let chaos_cmd =
  let run_cmd =
    let runs_arg =
      runs_arg 50
        ~doc:"Number of seeded runs (run $(i,i) uses seed $(i,SEED+i))."
    in
    let nemesis_arg =
      nemesis_arg
        ~doc:
          (Fmt.str
             "Comma-separated nemesis mix (%s; see $(b,rlx chaos list)).  \
              Defaults to every assumption-preserving nemesis — amnesia is \
              opt-in because it deliberately violates the stable-storage \
              assumption and SHOULD produce violations."
             nemesis_names)
    in
    let no_shrink_arg =
      let doc = "Report violations without shrinking them." in
      Arg.(value & flag & info [ "no-shrink" ] ~doc)
    in
    let doc =
      "Run seeded chaos sweeps: generate a nemesis fault schedule per run, \
       execute it on the replica runtime, and check every completed \
       history against its lattice point's predicted language.  Any \
       violation is shrunk to a 1-minimal replayable trace and saved."
    in
    Cmd.v (Cmd.info "run" ~doc)
      Term.(
        const run_chaos_run $ runs_arg
        $ run_seed_arg ~doc:"Root seed of the sweep."
        $ nemesis_arg $ points_arg ~verb:"cycle over" $ jobs_arg
        $ no_shrink_arg $ knobs_arg
        $ trace_prefix_arg "chaos-violation"
        $ trace_out_arg)
  in
  let replay_cmd =
    let doc =
      "Replay a recorded fault trace bit-for-bit and re-judge its history \
       against the conformance oracle."
    in
    let verbose_arg =
      let doc = "Also print the trace's fault schedule." in
      Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
    in
    Cmd.v (Cmd.info "replay" ~doc)
      Term.(
        const run_chaos_replay $ file_arg Arg.required ~doc $ verbose_arg
        $ trace_out_arg)
  in
  let list_cmd =
    let doc = "List the known lattice points and nemeses." in
    Cmd.v (Cmd.info "list" ~doc) Term.(const run_chaos_list $ const ())
  in
  let doc =
    "Deterministic chaos engine: composable fault injection with trace \
     record/replay, a lattice-conformance oracle, and counterexample \
     shrinking."
  in
  Cmd.group (Cmd.info "chaos" ~doc) [ run_cmd; replay_cmd; list_cmd ]

(* ------------------------------------------------------------------ *)
(* rlx debug                                                           *)
(* ------------------------------------------------------------------ *)

let run_debug file point seed nemeses script record_out =
  let module D = Relax_experiments.Debug in
  let trace =
    match file with
    | Some f when D.is_recording f -> D.load_recording f
    | Some f -> load_trace f
    | None -> generate_trace ~point ~seed ~nemeses
  in
  match trace with
  | Error e -> usage_error "%s" e
  | Ok trace -> (
    Option.iter
      (fun path ->
        D.save_recording path trace;
        Fmt.pr "recording written to %s@." path)
      record_out;
    match D.session_of_trace trace with
    | Error e -> usage_error "%s" e
    | Ok session ->
      (match script with
      | Some s -> D.run_script Fmt.stdout session s
      | None -> D.run_interactive Fmt.stdout session);
      0)

let debug_cmd =
  let file_arg =
    file_arg Arg.value
      ~doc:
        "A recorded run to debug: either a checksummed recording written \
         with $(b,--record), or a bare $(b,.trace) file from $(b,rlx chaos \
         run).  When omitted, a run is generated from $(b,--point), \
         $(b,--seed) and $(b,--nemesis)."
  in
  let point_arg =
    point_arg Arg.string "top"
      ~doc:"Lattice point of the generated run (no $(i,FILE))."
  in
  let script_arg =
    let doc =
      "Read debugger commands from $(docv) instead of stdin, echoing each \
       as a prompt line — the transcript is byte-deterministic."
    in
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let record_arg =
    let doc =
      "Also write the run as a checksummed single-file recording to \
       $(docv) (replayable with $(b,rlx debug) $(docv))."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Time-travel through a recorded chaos run: step forwards and \
     backwards over faults, mode switches, completions and recoveries, \
     inspecting the oracle's automaton frontier and the message copies \
     in flight at any point."
  in
  Cmd.v (Cmd.info "debug" ~doc)
    Term.(
      const run_debug $ file_arg $ point_arg
      $ run_seed_arg ~doc:"Seed of the generated run (no $(i,FILE))."
      $ nemesis_arg ~doc:"Comma-separated nemesis mix of the generated run."
      $ script_arg $ record_arg)

(* ------------------------------------------------------------------ *)
(* rlx degrade                                                         *)
(* ------------------------------------------------------------------ *)

(* Success means the controller's three promises all held: every
   controlled history in the predicted language, the online oracle
   agreeing with the post-hoc replay, and switching bounded by the
   hysteresis dwell. *)
let degrade_ok (report : Relax_experiments.Degrade_x.sweep_report) =
  report.Relax_experiments.Degrade_x.violations = 0
  && report.Relax_experiments.Degrade_x.online_disagreements = 0
  && report.Relax_experiments.Degrade_x.max_switches
     <= report.Relax_experiments.Degrade_x.switch_limit

let write_timeline path report =
  write_file path (Fmt.str "%a" Relax_experiments.Degrade_x.pp_timeline report);
  Fmt.epr "timeline: %d mode switches written to %s@."
    (List.fold_left
       (fun acc (c : Relax_experiments.Degrade_x.comparison) ->
         acc
         + List.length c.Relax_experiments.Degrade_x.controlled.Relax_chaos.Runner.transitions)
       0 report.Relax_experiments.Degrade_x.comparisons)
    path

let run_degrade_sweep ~print_timeline runs seed nemeses jobs knobs timeline
    trace_out =
  apply_jobs jobs;
  let module D = Relax_experiments.Degrade_x in
  let config = configure knobs Relax_chaos.Runner.default_config in
  with_trace trace_out @@ fun () ->
  match D.sweep ?jobs ~config ~runs ~seed ~nemeses () with
  | Error e -> usage_error "%s" e
  | Ok report ->
    Fmt.pr "== degrade: %d controlled-vs-static runs, seed %d, nemeses %s ==@\n"
      runs seed
      (String.concat "," nemeses);
    Fmt.pr "%a" D.pp_summary report;
    if print_timeline then begin
      Fmt.pr "mode-switch timeline:@\n";
      Fmt.pr "%a" D.pp_timeline report
    end;
    Option.iter (fun path -> write_timeline path report) timeline;
    exit_of (degrade_ok report)

let degrade_cmd =
  let nemesis_arg =
    nemesis_arg
      ~doc:
        (Fmt.str
           "Comma-separated nemesis mix (%s; see $(b,rlx chaos list)).  \
            Defaults to every assumption-preserving nemesis."
           nemesis_names)
  in
  let seed_arg =
    run_seed_arg ~doc:"Root seed (run $(i,i) uses seed $(i,SEED+i))."
  in
  let timeline_arg =
    let doc =
      "Write the mode-switch timeline (one line per transition: seed, \
       engine time, direction, cause) to $(docv) — the artifact the CI \
       sweep uploads."
    in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let exits =
    exits
      "zero conformance violations, the online oracle agreed with the \
       post-hoc replay everywhere, and switching stayed within the \
       hysteresis bound."
      "at least one of those promises broke."
  in
  let run_cmd =
    let doc =
      "One seeded comparison: the controller-driven client versus static \
       top and static bottom under an identical fault schedule, with the \
       availability uplift, conformance verdicts and the mode-switch \
       timeline."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const (run_degrade_sweep ~print_timeline:true 1)
        $ seed_arg $ nemesis_arg $ jobs_arg $ knobs_arg $ timeline_arg
        $ trace_out_arg)
  in
  let sweep_cmd =
    let doc =
      "Seeded degradation sweeps: each run replays one fault schedule \
       against the live controller and against the static endpoints, \
       checking online conformance, the availability uplift and the \
       hysteresis switch bound."
    in
    Cmd.v (Cmd.info "sweep" ~doc ~exits)
      Term.(
        const (run_degrade_sweep ~print_timeline:false)
        $ runs_arg 100 ~doc:"Number of seeded comparisons." $ seed_arg
        $ nemesis_arg $ jobs_arg $ knobs_arg $ timeline_arg $ trace_out_arg)
  in
  let doc =
    "The live degradation controller: online constraint monitors move the \
     replica along the relaxation lattice with hysteresis, every \
     transition is emitted into the history, and an incremental oracle \
     checks conformance as the history is produced."
  in
  Cmd.group (Cmd.info "degrade" ~doc) [ run_cmd; sweep_cmd ]

(* ------------------------------------------------------------------ *)
(* rlx ldfi                                                            *)
(* ------------------------------------------------------------------ *)

let ldfi_outcome_ok (o : Relax_experiments.Ldfi_x.outcome) =
  o.Relax_experiments.Ldfi_x.violation = None
  && (o.Relax_experiments.Ldfi_x.strategy <> "guided"
     || o.Relax_experiments.Ldfi_x.stats.Relax_ldfi.Search.exhausted)

(* LDFI's workload is shorter than the sweep default (many executions
   per point), so the base config comes from Ldfi_x, with --sites,
   --requests and the client knobs folded over it. *)
let run_ldfi_run points jobs sites requests budget wipe strategy seed format
    out_file trace_prefix knobs =
  apply_jobs jobs;
  let module L = Relax_experiments.Ldfi_x in
  let module S = Relax_ldfi.Search in
  let config = configure ?sites ?requests knobs L.default_config in
  let strategy =
    match strategy with `Guided -> `Guided | `Random -> `Random seed
  in
  match L.run_points ?jobs ~config ~wipe ~budget ~strategy points with
  | Error e -> usage_error "%s" e
  | Ok outcomes ->
    (match format with
    | `Json -> Fmt.pr "%s@." (L.coverage_json ~budget ~wipe outcomes)
    | `Tap -> L.coverage_tap Fmt.stdout outcomes
    | `Human ->
      Fmt.pr
        "== ldfi: budget %d crash / %d drop (cap %d injections), %d sites, \
         %d requests, wipe %b ==@\n"
        budget.S.max_crashes budget.S.max_drops budget.S.max_injections
        config.Relax_chaos.Runner.sites config.Relax_chaos.Runner.requests
        wipe;
      List.iter (fun o -> Fmt.pr "%a@\n" L.pp_outcome o) outcomes;
      List.iter
        (fun (o : L.outcome) ->
          Option.iter
            (fun (v : L.violation) ->
              save_shrunk trace_prefix o.L.point v.L.shrunk)
            o.L.violation)
        outcomes;
      let exhausted = List.filter ldfi_outcome_ok outcomes in
      Fmt.pr "coverage: %d/%d points exhausted with 0 violations@."
        (List.length exhausted) (List.length outcomes));
    Option.iter
      (fun path ->
        write_file path (L.coverage_json ~budget ~wipe outcomes ^ "\n");
        Fmt.epr "coverage document written to %s@." path)
      out_file;
    exit_of (List.for_all ldfi_outcome_ok outcomes)

let run_ldfi_hunt point sites requests budget seed trace_prefix knobs =
  let module L = Relax_experiments.Ldfi_x in
  let module S = Relax_ldfi.Search in
  let config = configure ?sites ?requests knobs L.hunt_config in
  match L.hunt ~config ~budget ~random_seed:seed point with
  | Error e -> usage_error "%s" e
  | Ok r ->
    Fmt.pr
      "== ldfi hunt: planted volatile-logs bug at %s (every crash wipes the \
       site) ==@\n"
      point;
    Fmt.pr "%a@\n" L.pp_outcome r.L.guided;
    Fmt.pr "%a@\n" L.pp_outcome r.L.random;
    Option.iter
      (fun (v : L.violation) -> save_shrunk trace_prefix point v.L.shrunk)
      r.L.guided.L.violation;
    let guided_execs = r.L.guided.L.stats.S.executions in
    (match (r.L.guided.L.violation, r.L.speedup) with
    | None, _ ->
      Fmt.pr "guided search found no violation — the bug escaped@."
    | Some _, Some x ->
      Fmt.pr
        "guided found it in %d executions, random in %d: %.1fx fewer@."
        guided_execs r.L.random.L.stats.S.executions x
    | Some _, None ->
      Fmt.pr
        "guided found it in %d executions; random found nothing within its \
         %d-execution cap (>= %.0fx fewer)@."
        guided_execs r.L.random_cap
        (float_of_int r.L.random_cap /. float_of_int (max guided_execs 1)));
    let ok =
      r.L.guided.L.violation <> None
      && match r.L.speedup with None -> true | Some x -> x >= 10.0
    in
    exit_of ok

let run_ldfi_report file =
  let module L = Relax_experiments.Ldfi_x in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> usage_error "cannot read coverage document: %s" e
  | doc -> (
    match L.read_coverage doc with
    | Error e -> usage_error "malformed coverage document %s: %s" file e
    | Ok r ->
      Fmt.pr "%a" L.pp_read_coverage r;
      exit_of (L.read_ok r))

let ldfi_cmd =
  let sites_arg =
    sites_arg Arg.(some (positive_int "number of sites")) None
      ~doc:"Replica sites."
  in
  let requests_arg =
    let doc = "Client operations per run (the workload slots)." in
    Arg.(
      value
      & opt (some (positive_int "number of requests")) None
      & info [ "requests" ] ~docv:"N" ~doc)
  in
  (* The failure budget, defaulting to [b]. *)
  let budget_arg (b : Relax_ldfi.Search.budget) =
    let crashes_arg =
      let doc = "Failure budget: crash-window variables per fault set." in
      Arg.(
        value & opt int b.max_crashes & info [ "max-crashes" ] ~docv:"N" ~doc)
    in
    let drops_arg =
      let doc = "Failure budget: omitted message copies per fault set." in
      Arg.(value & opt int b.max_drops & info [ "max-drops" ] ~docv:"N" ~doc)
    in
    let injections_arg =
      let doc = "Cap on injected runs before the search gives up." in
      Arg.(
        value
        & opt int b.max_injections
        & info [ "max-injections" ] ~docv:"N" ~doc)
    in
    Term.(
      const (fun max_crashes max_drops max_injections ->
          { Relax_ldfi.Search.max_crashes; max_drops; max_injections })
      $ crashes_arg $ drops_arg $ injections_arg)
  in
  let trace_prefix_arg = trace_prefix_arg "ldfi-violation" in
  let run_cmd =
    let wipe_arg =
      let doc =
        "Volatile-logs realization: every injected crash also wipes the \
         site's log, deliberately breaking the stable-storage assumption \
         (the planted bug `rlx ldfi hunt` searches for)."
      in
      Arg.(value & flag & info [ "wipe" ] ~doc)
    in
    let strategy_arg =
      let doc =
        "$(b,guided) (lineage-driven search, the default) or $(b,random) \
         (the seeded baseline: same fault space and budget, no lineage)."
      in
      Arg.(
        value
        & opt (enum [ ("guided", `Guided); ("random", `Random) ]) `Guided
        & info [ "strategy" ] ~docv:"STRATEGY" ~doc)
    in
    let format_arg =
      format_arg
        [ ("human", `Human); ("json", `Json); ("tap", `Tap) ]
        ~doc:
          "Output format: $(b,human), $(b,json) (the coverage document CI \
           diffs) or $(b,tap) (TAP v14, one test per point)."
    in
    let exits =
      exits
        "every searched point reached exhaustive fault coverage: all \
         candidate fault sets within the budget injected, 0 violations."
        "a violation was found, or the injection cap was hit."
    in
    let doc =
      "Search the fault space instead of sampling it: extract the lineage \
       of a conforming run, solve for the minimal fault sets that could \
       break it, inject exactly those, and iterate to exhaustive coverage \
       or a shrunken counterexample."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const run_ldfi_run $ points_arg ~verb:"search" $ jobs_arg $ sites_arg
        $ requests_arg
        $ budget_arg Relax_ldfi.Search.ci_budget
        $ wipe_arg $ strategy_arg
        $ run_seed_arg
            ~doc:"Seed of the $(b,random) baseline's sampling stream."
        $ format_arg
        $ out_arg
            ~doc:
              "Also write the JSON coverage document to $(docv) (the CI \
               artifact), whatever $(b,--format) prints."
        $ trace_prefix_arg $ knobs_arg)
  in
  let hunt_cmd =
    let exits =
      exits
        "the guided search found a shrunken violating trace at least 10x \
         faster (executions to first violation) than the random baseline."
        "it did not."
    in
    let doc =
      "Race guided against random on the planted volatile-logs bug: with \
       every crash wiping its site (breaking the stable-storage \
       assumption), compare executions-to-first-violation.  The baseline \
       gets ten times the guided execution count before giving up."
    in
    Cmd.v (Cmd.info "hunt" ~doc ~exits)
      Term.(
        const run_ldfi_hunt
        $ point_pos Arg.value Arg.string "top" ~what:"Lattice point to hunt at"
        $ sites_arg $ requests_arg
        $ budget_arg Relax_experiments.Ldfi_x.hunt_budget
        $ seed_arg Arg.int 42 ~doc:"Seed of the random baseline."
        $ trace_prefix_arg $ knobs_arg)
  in
  let report_cmd =
    let doc =
      "Render a recorded JSON coverage document and re-state its verdict \
       (exit 0 iff every point reached exhaustive coverage with 0 \
       violations)."
    in
    Cmd.v (Cmd.info "report" ~doc)
      Term.(
        const run_ldfi_report
        $ file_arg Arg.required
            ~doc:"A coverage document written by $(b,rlx ldfi run --out).")
  in
  let doc =
    "Lineage-driven fault injection: turn the chaos oracle from sampled \
     into searched — per-point exhaustive fault coverage within a failure \
     budget, or a minimal counterexample."
  in
  Cmd.group (Cmd.info "ldfi" ~doc) [ run_cmd; hunt_cmd; report_cmd ]

let availability_cmd =
  let doc = "Availability of every lattice point (exact + Monte Carlo)." in
  Cmd.v
    (Cmd.info "availability" ~doc)
    Term.(
      const (fun jobs ->
          apply_jobs jobs;
          exit_of (Relax_experiments.Availability.run out ()))
      $ jobs_arg)

(* The queue alphabet over the universe {1,2}, shared by lattice and
   compare. *)
let alphabet =
  Relax_objects.Queue_ops.alphabet (Relax_objects.Queue_ops.universe 2)

let lattice_cmd =
  let doc = "Print and check the replicated-PQ relaxation lattice." in
  Cmd.v
    (Cmd.info "lattice" ~doc)
    Term.(
      const (fun depth ->
          exit_of (Relax_experiments.Pq_checks.run ~alphabet ~depth out ()))
      $ depth_arg)

(* rlx trait show Bag / rlx trait theory Bag / rlx trait normalize Bag "expr" *)
let traits =
  let module T = Relax_larch.Theories in
  [
    ("Bag", T.bag_src); ("MBag", T.mbag_src); ("FifoQ", T.fifoq_src);
    ("PQueue", T.pqueue_src); ("MPQueue", T.mpqueue_src); ("SetE", T.set_src);
    ("SemiQ", T.semiq_src); ("StutQ", T.stutq_src); ("DPQ", T.dpq_src);
    ("RFQ", T.rfq_src);
  ]

let trait_names = String.concat ", " (List.map fst traits)

let run_trait action name expr =
  match List.assoc_opt name traits with
  | None -> usage_error "unknown trait %S (expected one of %s)" name trait_names
  | Some source -> (
    match action with
    | "show" ->
      Fmt.pr "%a@."
        Relax_larch.Printer.pp_trait
        (Relax_larch.Parser.trait_of_string source);
      0
    | "theory" ->
      Fmt.pr "%a@." Relax_larch.Printer.pp_theory
        (Relax_larch.Theories.find name);
      0
    | "normalize" -> (
      match expr with
      | None -> usage_error "normalize needs an expression argument"
      | Some src -> (
        try
          let t = Relax_larch.Parser.expr_of_string src in
          let theory = Relax_larch.Theories.find name in
          Fmt.pr "%a@." Relax_larch.Term.pp
            (Relax_larch.Trait.normalize theory t);
          0
        with
        | Relax_larch.Parser.Error e | Relax_larch.Lexer.Error e ->
          usage_error "parse error: %s" e
        | Relax_larch.Rewrite.Out_of_fuel ->
          usage_error "normalization did not terminate within the fuel bound"))
    | other ->
      usage_error "unknown action %S (expected show | theory | normalize)"
        other)

let trait_cmd =
  let doc =
    "Inspect the standard traits: show the source, print the elaborated \
     theory, or normalize a ground expression."
  in
  let action_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION" ~doc)
  in
  let name_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"TRAIT"
        ~doc:(Fmt.str "Trait name (%s)." trait_names))
  in
  let expr_arg =
    Arg.(
      value & pos 2 (some string) None & info [] ~docv:"EXPR"
        ~doc:"Expression to normalize (for the normalize action).")
  in
  Cmd.v (Cmd.info "trait" ~doc)
    Term.(const run_trait $ action_arg $ name_arg $ expr_arg)

(* rlx compare PQ MPQ: classify two named behaviors by bounded language
   comparison (Section 5's comparison of specifications). *)
let run_compare a b depth =
  match Relax_objects.Registry.classify ~alphabet ~depth a b with
  | Some c ->
    Fmt.pr "%s vs %s (depth %d): %a@." a b depth
      Relax_core.Language.pp_classification c;
    0
  | None ->
    usage_error "unknown behavior (known: %s)"
      (String.concat ", " Relax_objects.Registry.names)

let compare_cmd =
  let doc =
    "Compare two named behaviors by bounded language inclusion (e.g. rlx \
     compare PQ MPQ)."
  in
  let a_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc)
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc)
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run_compare $ a_arg $ b_arg $ depth_arg)

(* ------------------------------------------------------------------ *)
(* rlx trace / rlx profile                                             *)
(* ------------------------------------------------------------------ *)

(* The trace subcommands run an experiment purely for its trace: the
   experiment's own report is discarded, and stdout carries either
   nothing (--trace-out) or the aggregated span table. *)
let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let run_trace_simulate which seed trace_out =
  with_trace ~table:true trace_out (fun () ->
      run_simulate_on no_knobs null_ppf which seed)

let run_trace_chaos point seed nemeses trace_out =
  let module X = Relax_experiments.Chaos_scenarios in
  with_trace ~table:true trace_out (fun () ->
      match generate_trace ~point ~seed ~nemeses with
      | Error e -> usage_error "%s" e
      | Ok trace -> (
        match X.run_trace trace with
        | Error e -> usage_error "%s" e
        | Ok (result, verdict) ->
          Fmt.epr "point %s, seed %d: %d completed, %d unavailable — %a@."
            point seed result.Relax_chaos.Runner.completed
            result.Relax_chaos.Runner.unavailable Relax_chaos.Oracle.pp
            verdict;
          exit_of (Relax_chaos.Oracle.conforms verdict)))

(* trace check and profile check: the claim selection of check, traced. *)
let claims_trace_cmd ?report ~table ~doc name =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (run_claims ?report ~table)
      $ group_arg ~doc:"Claim group to run, $(b,all) by default."
      $ only_arg $ depth_arg $ method_arg $ jobs_arg $ trace_out_arg)

let trace_cmd =
  let sim_cmd =
    let doc =
      Fmt.str
        "Trace a case-study simulation (%s): spans and instants from the \
         engine, network, replica and claims, timestamped in virtual time \
         — byte-identical for a given seed."
        simulation_names
    in
    Cmd.v (Cmd.info "simulate" ~doc)
      Term.(
        const run_trace_simulate $ what_arg ~doc $ sim_seed_arg
        $ trace_out_arg)
  in
  let chaos_cmd =
    let doc =
      "Trace one chaos run at a lattice point: fault applications, mode \
       switches and the oracle verdict, with the active constraint set \
       as span attributes."
    in
    Cmd.v (Cmd.info "chaos" ~doc)
      Term.(
        const run_trace_chaos
        $ point_pos Arg.required Arg.(some string) None ~what:"Lattice point"
        $ run_seed_arg ~doc:"Seed of the traced run."
        $ nemesis_arg
            ~doc:
              "Comma-separated nemesis mix (default: every \
               assumption-preserving nemesis)."
        $ trace_out_arg)
  in
  let check_cmd =
    claims_trace_cmd ~table:true
      ~doc:
        "Trace a claim run: one complete event per claim with its wall \
         clock and memo/product statistics."
      "check"
  in
  let doc =
    "Trace an experiment: run it with the observability layer recording \
     spans, instants and counters, then export them (Chrome trace_event, \
     JSON lines, or an aggregated table)."
  in
  Cmd.group (Cmd.info "trace" ~doc) [ sim_cmd; chaos_cmd; check_cmd ]

let profile_cmd =
  let check_cmd =
    claims_trace_cmd ~report:Relax_claims.Reporter.Json ~table:false
      ~doc:
        "Profile a claim run: print the JSON report (per-claim status, \
         wall clock and checker statistics) and optionally write a \
         per-claim trace artifact."
      "check"
  in
  let doc = "Profile a workload (currently: check)." in
  Cmd.group (Cmd.info "profile" ~doc) [ check_cmd ]

(* ------------------------------------------------------------------ *)
(* rlx load                                                            *)
(* ------------------------------------------------------------------ *)

let run_load ops shards sites rate read_fraction timeout drop no_crash closed
    concurrency seed point jobs out_file =
  let module L = Relax_experiments.Load in
  let module T = Relax_experiments.Taxi in
  let params =
    {
      L.ops;
      shards;
      sites;
      rate;
      read_fraction;
      timeout;
      drop;
      crash = not no_crash;
      closed;
      concurrency;
      seed = Option.value seed ~default:L.default_params.seed;
    }
  in
  match point with
  | Some name when not (List.mem name T.point_names) ->
    usage_error "unknown lattice point %S (expected %s)" name
      (alts T.point_names)
  | _ ->
    let outcomes =
      match point with
      | None -> L.run ?jobs ~params ()
      | Some name -> [ L.run_point ?jobs ~params (T.point ~n:sites name) ]
    in
    Fmt.pr "== X-load: %s workload over the sharded engine ==@."
      (if params.closed then "closed-loop" else "open-loop");
    Fmt.pr "ops %d  shards %d  sites %d  rate %.2f/ms  reads %.0f%%  drop %.3f  crash %b@."
      params.ops params.shards params.sites params.rate
      (100.0 *. params.read_fraction) params.drop params.crash;
    if params.closed then
      Fmt.pr "closed loop: at most %d in-flight operations per shard@."
        params.concurrency;
    List.iter (fun o -> Fmt.pr "%a@." L.pp_outcome o) outcomes;
    Option.iter
      (fun path ->
        write_file path (L.json_of_outcomes outcomes);
        Fmt.pr "wrote %s@." path)
      out_file;
    0

let load_cmd =
  let doc =
    "Drive the sharded engine with an open-loop YCSB-style workload: \
     millions of quorum operations across the lattice points, reporting \
     availability, latency percentiles and throughput."
  in
  let d = Relax_experiments.Load.default_params in
  let shards_arg =
    let doc = "Independent simulation shards (one engine each)." in
    Arg.(
      value
      & opt (positive_int "number of shards") d.shards
      & info [ "shards" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Mean arrivals per simulated millisecond, per shard." in
    Arg.(
      value
      & opt (positive_float "rate") d.rate
      & info [ "rate" ] ~docv:"R" ~doc)
  in
  let read_arg =
    let doc = "Fraction of operations that are reads (Deq)." in
    Arg.(
      value & opt float d.read_fraction & info [ "reads" ] ~docv:"FRAC" ~doc)
  in
  let timeout_arg =
    let doc = "Milliseconds before an operation counts as unavailable." in
    Arg.(value & opt float d.timeout & info [ "timeout" ] ~docv:"MS" ~doc)
  in
  let drop_arg =
    let doc = "Per-leg message loss probability." in
    Arg.(value & opt float d.drop & info [ "drop" ] ~docv:"P" ~doc)
  in
  let no_crash_arg =
    let doc = "Disable the mid-run crash window." in
    Arg.(value & flag & info [ "no-crash" ] ~doc)
  in
  let closed_arg =
    let doc =
      "Closed-loop mode: a bounded pool of clients (see $(b,--concurrency)) \
       replaces Poisson arrivals; each client issues its next operation \
       only when the previous one settles, so overload is absorbed as \
       reduced offered rate instead of queueing."
    in
    Arg.(value & flag & info [ "closed" ] ~doc)
  in
  let concurrency_arg =
    let doc = "In-flight operation bound per shard (closed loop only)." in
    Arg.(
      value
      & opt (positive_int "concurrency") d.concurrency
      & info [ "concurrency" ] ~docv:"N" ~doc)
  in
  let point_arg =
    point_arg Arg.(some string) None
      ~doc:
        (Fmt.str "Run a single lattice point (%s) instead of the full sweep."
           (alts Relax_experiments.Taxi.point_names))
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run_load
      $ ops_arg d.ops ~doc:"Total client operations across all shards."
      $ shards_arg
      $ sites_arg (positive_int "number of sites") d.sites
          ~doc:"Replica sites per shard."
      $ rate_arg $ read_arg $ timeout_arg $ drop_arg $ no_crash_arg
      $ closed_arg $ concurrency_arg $ sim_seed_arg $ point_arg $ jobs_arg
      $ out_arg ~doc:"Write the outcomes as JSON to $(docv) (the CI artifact).")

(* ------------------------------------------------------------------ *)
(* rlx relax                                                           *)
(* ------------------------------------------------------------------ *)

(* The live multicore loop: real domains race on the lock-free
   structures of lib/relax, and the recorded histories are decided
   against the Section 4 automata.  `run` is one seeded workload,
   `check` is the CI-budget conformance gate (sweep + planted negative
   + elastic trajectory), `bench` is the unrecorded scaling table. *)

let relax_impl_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "relaxed" -> Ok Relax_relax.Harness.Relaxed
    | "planted" -> Ok Relax_relax.Harness.Planted
    | "locked" -> Ok Relax_relax.Harness.Locked
    | "stuttering" -> Ok Relax_relax.Harness.Stuttering
    | _ ->
      Error
        (`Msg
          (Fmt.str "unknown impl %S (relaxed | planted | locked | stuttering)"
             s))
  in
  let print ppf i = Fmt.string ppf (Relax_relax.Harness.impl_name i) in
  Arg.conv (parse, print)

let run_relax_run impl domains ops k j prefill bias seed show_events =
  let module H = Relax_relax.Harness in
  let module C = Relax_relax.Conformance in
  let params =
    {
      H.impl;
      domains;
      ops_per_domain = ops;
      k;
      j;
      prefill;
      enq_bias = bias;
      seed = Option.value seed ~default:H.default_params.seed;
    }
  in
  let o = H.run params in
  Fmt.pr "== relax run: %s, %d domains x %d ops, k=%d j=%d, seed %d ==@."
    (H.impl_name impl) domains ops k j params.seed;
  if show_events then
    List.iter (fun c -> Fmt.pr "%a@." Relax_relax.Record.pp_completed c)
      o.H.events;
  Fmt.pr "recorded %d ops in %.4f s (%.3f Mops/s)@." o.H.ops o.H.wall_s
    o.H.mops;
  Fmt.pr "%a@." C.pp_verdict o.H.verdict;
  let conforms = C.conforms o.H.verdict in
  match impl with
  | H.Planted ->
    (* the negative control succeeds by being caught *)
    Fmt.pr "planted overtake: %s@."
      (if conforms then "ESCAPED the checker" else "caught");
    exit_of (not conforms)
  | _ -> exit_of conforms

let run_relax_check domains ops k j seeds seed0 =
  let module H = Relax_relax.Harness in
  let module C = Relax_relax.Conformance in
  let module X = Relax_experiments.Relax_x in
  let params =
    { H.default_params with domains; ops_per_domain = ops; k; j }
  in
  let seed_list = List.init seeds (fun i -> seed0 + i) in
  Fmt.pr "== relax check: %d domains x %d ops, k=%d, seeds %d..%d ==@." domains
    ops k seed0
    (seed0 + seeds - 1);
  let sweep = X.conformance_sweep params seed_list in
  Fmt.pr "relaxed vs Semiqueue_%d: %d/%d accepted@." k sweep.X.accepted seeds;
  List.iter
    (fun (seed, v) -> Fmt.pr "  seed %d REJECTED: %s@." seed v)
    sweep.X.rejections;
  let _events, at_claimed, at_doubled = X.planted_exhibit ~width:2 in
  let planted_ok =
    (not (C.conforms at_claimed)) && C.conforms at_doubled
  in
  Fmt.pr "planted overtake: %s at k=2, %s at k=4@."
    (if C.conforms at_claimed then "accepted (BUG MISSED)" else "rejected")
    (if C.conforms at_doubled then "accepted" else "rejected (BUG)");
  let el = H.run_elastic H.default_elastic_params in
  let widened =
    List.exists
      (fun (tr : Relax_relax.Controller.transition) -> tr.widened)
      el.H.etransitions
  and narrowed =
    List.exists
      (fun (tr : Relax_relax.Controller.transition) -> not tr.widened)
      el.H.etransitions
  in
  let elastic_ok =
    widened && narrowed && el.H.set_k_events >= 1 && C.conforms el.H.everdict
  in
  Fmt.pr "elastic: k %a, %d shift events, %s@."
    Fmt.(list ~sep:(any " -> ") int)
    el.H.evisited el.H.set_k_events
    (if C.conforms el.H.everdict then "accepted" else "REJECTED");
  exit_of (sweep.X.rejections = [] && planted_ok && elastic_ok)

let run_relax_bench domain_counts ops k j seed out =
  let module X = Relax_experiments.Relax_x in
  let rows = X.bench_rows ~domain_counts ~ops_per_domain:ops ~k ~j ~seed () in
  Fmt.pr "== relax bench: %d ops/domain, k=%d j=%d, seed %d ==@." ops k j seed;
  Fmt.pr "%a" X.pp_bench rows;
  Option.iter
    (fun path ->
      write_file path (X.bench_to_json rows ^ "\n");
      Fmt.pr "wrote %s@." path)
    out;
  0

let relax_cmd =
  let d = Relax_relax.Harness.default_params in
  let domains = positive_int "number of domains" in
  let domains_arg =
    let doc = "Number of domains racing on the structure." in
    Arg.(value & opt domains d.domains & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let ops_arg default = ops_arg default ~doc:"Operations per domain." in
  let k_arg =
    let doc = "Relaxation bound: segment width of the k-relaxed queue." in
    Arg.(
      value
      & opt (positive_int "relaxation bound") d.k
      & info [ "k" ] ~docv:"K" ~doc)
  in
  let j_arg =
    let doc = "Stutter budget of the j-stuttering queue." in
    Arg.(
      value
      & opt (positive_int "stutter budget") d.j
      & info [ "j" ] ~docv:"J" ~doc)
  in
  let run_cmd =
    let impl_arg =
      let doc = "Implementation: relaxed | planted | locked | stuttering." in
      Arg.(
        value
        & opt relax_impl_conv Relax_relax.Harness.Relaxed
        & info [ "impl"; "i" ] ~docv:"IMPL" ~doc)
    in
    let prefill_arg =
      let doc = "Items enqueued (and recorded) before spawning domains." in
      Arg.(value & opt int d.prefill & info [ "prefill" ] ~docv:"N" ~doc)
    in
    let bias_arg =
      let doc = "Probability an operation is an enqueue." in
      Arg.(value & opt float d.enq_bias & info [ "bias" ] ~docv:"P" ~doc)
    in
    let events_arg =
      let doc = "Print the recorded history (one completed op per line)." in
      Arg.(value & flag & info [ "events" ] ~doc)
    in
    let exits =
      exits
        "the recorded history conforms (for $(b,--impl planted): the \
         checker caught the planted overtake)."
        "the conformance verdict went the wrong way."
    in
    let doc =
      "One seeded multi-domain workload against a live structure, recorded \
       and conformance-checked against its lattice automaton."
    in
    Cmd.v (Cmd.info "run" ~doc ~exits)
      Term.(
        const run_relax_run $ impl_arg $ domains_arg
        $ ops_arg d.ops_per_domain $ k_arg $ j_arg $ prefill_arg
        $ bias_arg
        $ seed_arg Arg.(some int) None ~doc:"Workload seed."
        $ events_arg)
  in
  let check_cmd =
    let seeds_arg =
      let doc = "Number of seeded runs in the conformance sweep." in
      Arg.(
        value
        & opt (positive_int "number of seeds") 20
        & info [ "seeds" ] ~docv:"N" ~doc)
    in
    let doc =
      "The conformance gate: a pinned-seed multi-domain sweep against \
       Semiqueue_k, the planted-overtake negative control, and one elastic \
       trajectory under the combined automaton."
    in
    let exits =
      exits
        "every sweep run accepted, the planted variant rejected at its \
         claimed bound, and the elastic trajectory (with at least one \
         widen and one narrow) accepted."
        "at least one of those gates failed."
    in
    Cmd.v (Cmd.info "check" ~doc ~exits)
      Term.(
        const run_relax_check $ domains_arg $ ops_arg 60 $ k_arg
        $ j_arg $ seeds_arg
        $ seed_arg Arg.int 0 ~doc:"First seed of the sweep.")
  in
  let bench_cmd =
    let domain_counts_arg =
      let doc = "Comma-separated domain counts to scale across." in
      Arg.(
        value
        & opt (list domains) [ 1; 2; 4; 8 ]
        & info [ "domains"; "d" ] ~docv:"LIST" ~doc)
    in
    let doc =
      "Unrecorded throughput: the segment-window relaxed queue versus the \
       locked baseline (and the stuttering queue) across domain counts."
    in
    Cmd.v (Cmd.info "bench" ~doc)
      Term.(
        const run_relax_bench $ domain_counts_arg $ ops_arg 50_000
        $ k_arg $ j_arg
        $ seed_arg Arg.int d.seed
            ~doc:"Base seed (run $(i,i) of a sweep uses $(i,SEED+i))."
        $ out_arg ~doc:"Write the rows as JSON to $(docv) (the CI artifact).")
  in
  let doc =
    "Live multicore relaxed queues: run, conformance-check and benchmark \
     the lock-free structures of lib/relax against the Section 4 lattice."
  in
  Cmd.group (Cmd.info "relax" ~doc) [ run_cmd; check_cmd; bench_cmd ]

let behaviors_cmd =
  let doc = "List the named behaviors available to 'rlx compare'." in
  Cmd.v (Cmd.info "behaviors" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun e ->
              Fmt.pr "%-14s %s@." e.Relax_objects.Registry.name
                e.Relax_objects.Registry.description)
            Relax_objects.Registry.entries;
          0)
      $ const ())

let main =
  let doc = "relaxation-lattice toolkit (Herlihy & Wing, PODC 1987)" in
  Cmd.group
    (Cmd.info "rlx" ~version:"1.0.0" ~doc)
    [
      check_cmd; figure_cmd; simulate_cmd; chaos_cmd; debug_cmd; ldfi_cmd;
      degrade_cmd; availability_cmd; lattice_cmd; load_cmd; relax_cmd;
      trait_cmd; compare_cmd; behaviors_cmd; trace_cmd; profile_cmd;
    ]

let () = exit (Cmd.eval' main)
