(* Experiment X-ldfi: lineage-driven fault injection over the lattice
   points — the chaos oracle turned from "sampled" into "searched".

   lib/ldfi is scenario-agnostic; this module wires it to the chaos
   scenarios: a [Search.system] runs a candidate schedule through the
   ordinary trace pipeline under a private tracer and hands the lineage
   back to the search.  On a violation the realized schedule goes
   through the ddmin shrinker like any random-sweep counterexample, so
   `rlx chaos replay` accepts what LDFI reports.

   Two entry points mirror the two halves of the story:

   - [coverage]: at a fixed failure budget and with the paper's
     stable-storage assumption intact, the guided loop exhausts every
     candidate fault set without finding a violation — per-point
     *fault coverage*, a universally-quantified statement 200 random
     seeds cannot make.

   - [hunt]: with the volatile-logs realization (every crash wipes the
     site, breaking the stable-storage assumption the guarantees rest
     on), the search plants the classic bug and races the random
     baseline to the first violation. *)

module Chaos = Relax_chaos
module Ldfi = Relax_ldfi
module Tracer = Relax_obs.Tracer

(* LDFI runs many executions per point, so the workload is kept shorter
   than the sweep default; everything else matches X-chaos. *)
let default_config =
  { Chaos.Runner.default_config with Chaos.Runner.requests = 6 }

let nemeses_tag = [ "ldfi" ]

let make_trace ~config ~point events =
  { Chaos.Trace.point; nemeses = nemeses_tag; config; events }

(* The system under search for one lattice point: run the schedule under
   a private tracer, judge the history, extract the support graph. *)
let system ~config point =
  {
    Ldfi.Search.exec =
      (fun events ->
        let trace = make_trace ~config ~point events in
        let tracer = Tracer.create () in
        match
          Tracer.Ambient.with_tracer tracer (fun () ->
              Chaos_scenarios.run_trace trace)
        with
        | Error e -> failwith e (* point validated by the caller *)
        | Ok (_result, verdict) ->
          {
            Ldfi.Search.conforms = Chaos.Oracle.conforms verdict;
            support = Ldfi.Support.of_events (Tracer.events tracer);
          });
  }

type violation = {
  fault_set : string list; (* rendered fault variables *)
  trace : Chaos.Trace.t; (* the realized schedule, replayable *)
  shrunk : Chaos.Trace.t; (* after ddmin *)
  probes : int;
}

type outcome = {
  point : string;
  strategy : string; (* "guided" or "random" *)
  stats : Ldfi.Search.stats;
  violation : violation option;
}

let strategy_name = function `Guided -> "guided" | `Random _ -> "random"

(* Search one point.  Deterministic: the guided loop is; the random
   baseline draws from its own seed. *)
let run_point ?(config = default_config) ?(wipe = false) ~budget ~strategy
    point =
  match Chaos_scenarios.find point with
  | Error e -> Error e
  | Ok sc ->
    (* a durable scenario changes the storage model the clauses reason
       about: crashes restart journaled sites, only wipes destroy their
       entry copies *)
    let durable = sc.Chaos_scenarios.durable in
    let sys = system ~config point in
    let result =
      match strategy with
      | `Guided -> Ldfi.Search.guided ~wipe ~durable ~budget sys
      | `Random seed -> Ldfi.Search.random_walk ~wipe ~durable ~budget ~seed sys
    in
    let violation =
      Option.map
        (fun (f : Ldfi.Search.found) ->
          let trace = make_trace ~config ~point f.events in
          let shrunk, probes = Chaos_scenarios.shrink_trace trace in
          {
            fault_set = List.map Ldfi.Search.var_key f.fault_set;
            trace;
            shrunk;
            probes;
          })
        result.Ldfi.Search.violation
    in
    Ok
      {
        point;
        strategy = strategy_name strategy;
        stats = result.Ldfi.Search.stats;
        violation;
      }

(* Fan the points out over domains; each point's search is sequential
   and self-contained, so the report is identical at any [jobs]. *)
let run_points ?jobs ?(config = default_config) ?(wipe = false) ~budget
    ~strategy points =
  match points with
  | [] -> Error "ldfi: no lattice points selected"
  | _ -> (
    let bad =
      List.filter_map
        (fun p ->
          match Chaos_scenarios.find p with Error e -> Some e | Ok _ -> None)
        points
    in
    match bad with
    | e :: _ -> Error e
    | [] ->
      Ok
        (Relax_parallel.Pool.map ?jobs
           (fun point ->
             match run_point ~config ~wipe ~budget ~strategy point with
             | Ok o -> o
             | Error e -> failwith e)
           points))

(* ------------------------------------------------------------------ *)
(* The guided-vs-random hunt (the planted volatile-logs bug)           *)
(* ------------------------------------------------------------------ *)

type hunt_report = {
  guided : outcome;
  random : outcome;
  random_cap : int; (* the execution cap the baseline ran under *)
  speedup : float option;
      (* executions-to-violation ratio; None when the baseline never
         found one — then the ratio is at least random_cap/guided *)
}

(* The planted bug's failure budget: enough crash windows to wipe a full
   final quorum at five sites, plus one droppable copy. *)
let hunt_budget =
  { Ldfi.Search.max_crashes = 3; max_drops = 1; max_injections = 1500 }

(* The hunt heals aggressively (anti-entropy after every operation) so
   any partial wipe is repaired before the next read: the only surviving
   violations need every live copy wiped in one window — a needle the
   lineage points at and blind sampling has to stumble on. *)
let hunt_config = { default_config with Chaos.Runner.gossip_every = 1 }

let hunt ?(config = hunt_config) ?(budget = hunt_budget)
    ?(random_seed = 42) point =
  match run_point ~config ~wipe:true ~budget ~strategy:`Guided point with
  | Error e -> Error e
  | Ok guided -> (
    let guided_execs = guided.stats.Ldfi.Search.executions in
    (* give the baseline ten times the guided budget: if it still finds
       nothing, the >=10x speedup holds by construction *)
    let random_cap = 10 * guided_execs in
    let budget =
      { budget with Ldfi.Search.max_injections = random_cap }
    in
    match
      run_point ~config ~wipe:true ~budget ~strategy:(`Random random_seed)
        point
    with
    | Error e -> Error e
    | Ok random ->
      let speedup =
        match (guided.violation, random.violation) with
        | Some _, Some _ ->
          Some
            (float_of_int random.stats.Ldfi.Search.executions
            /. float_of_int (max guided_execs 1))
        | _ -> None
      in
      Ok { guided; random; random_cap; speedup })

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_outcome ppf o =
  let s = o.stats in
  Fmt.pf ppf
    "%-10s %-7s executions %4d  injections %4d  candidates %4d  vars %4d  \
     clauses %3d  rounds %2d  %s"
    o.point o.strategy s.Ldfi.Search.executions s.Ldfi.Search.injections
    s.Ldfi.Search.candidates s.Ldfi.Search.vars s.Ldfi.Search.clauses
    s.Ldfi.Search.rounds
    (match o.violation with
    | None ->
      if s.Ldfi.Search.exhausted then "exhausted, 0 violations"
      else "0 violations (injection cap hit)"
    | Some v ->
      Fmt.str "VIOLATION {%s} shrunk %d -> %d events (%d probes)"
        (String.concat "; " v.fault_set)
        (List.length v.trace.Chaos.Trace.events)
        (List.length v.shrunk.Chaos.Trace.events)
        v.probes)

(* Minimal hand-rolled JSON (the repo carries no JSON dependency); the
   field order is fixed so CI can diff the bytes. *)
let json_escape = Relax_obs.Attr.json_escape

let outcome_json b o =
  let s = o.stats in
  Buffer.add_string b
    (Fmt.str
       "{\"point\":\"%s\",\"strategy\":\"%s\",\"executions\":%d,\"injections\":%d,\"candidates\":%d,\"vars\":%d,\"clauses\":%d,\"rounds\":%d,\"exhausted\":%b,\"violations\":%d"
       (json_escape o.point) (json_escape o.strategy) s.Ldfi.Search.executions
       s.Ldfi.Search.injections s.Ldfi.Search.candidates s.Ldfi.Search.vars
       s.Ldfi.Search.clauses s.Ldfi.Search.rounds s.Ldfi.Search.exhausted
       (match o.violation with None -> 0 | Some _ -> 1));
  (match o.violation with
  | None -> ()
  | Some v ->
    Buffer.add_string b
      (Fmt.str ",\"fault_set\":[%s],\"shrunk_events\":%d"
         (String.concat ","
            (List.map (fun f -> "\"" ^ json_escape f ^ "\"") v.fault_set))
         (List.length v.shrunk.Chaos.Trace.events)));
  Buffer.add_string b "}"

let coverage_json ~budget ~wipe outcomes =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"experiment\":\"ldfi\",\"budget\":{\"max_crashes\":%d,\"max_drops\":%d,\"max_injections\":%d},\"wipe\":%b,\"points\":["
       budget.Ldfi.Search.max_crashes budget.Ldfi.Search.max_drops
       budget.Ldfi.Search.max_injections wipe);
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char b ',';
      outcome_json b o)
    outcomes;
  Buffer.add_string b "]}";
  Buffer.contents b

let coverage_tap ppf outcomes =
  Fmt.pf ppf "TAP version 14@.1..%d@." (List.length outcomes);
  List.iteri
    (fun i o ->
      let ok =
        o.violation = None && o.stats.Ldfi.Search.exhausted
      in
      Fmt.pf ppf "%s %d - ldfi coverage %s (%d executions%s)@."
        (if ok then "ok" else "not ok")
        (i + 1) o.point o.stats.Ldfi.Search.executions
        (if o.stats.Ldfi.Search.exhausted then ", exhausted" else ""))
    outcomes

(* ------------------------------------------------------------------ *)
(* Reading a coverage document back (`rlx ldfi report`)                *)
(* ------------------------------------------------------------------ *)

(* A keyed scanner over the fixed schema [coverage_json] writes — not a
   general JSON parser (the repo carries none).  The writer pins the
   field order and escaping, so exact-key scanning is faithful for the
   documents this tool produces and CI diffs. *)

type read_outcome = {
  r_point : string;
  r_strategy : string;
  r_executions : int;
  r_injections : int;
  r_candidates : int;
  r_exhausted : bool;
  r_violations : int;
  r_fault_set : string list;
}

type read_coverage = {
  r_budget : Ldfi.Search.budget;
  r_wipe : bool;
  r_outcomes : read_outcome list;
}

let find_sub s pat from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else go (i + 1)
  in
  go (max 0 from)

(* the raw text of ["key": <scalar>], up to the closing delimiter *)
let scalar_field s key =
  match find_sub s (Fmt.str "\"%s\":" key) 0 with
  | None -> Error (Fmt.str "missing field %S" key)
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length s
      && not (List.mem s.[!stop] [ ','; '}'; ']' ])
    do
      incr stop
    done;
    Ok (String.sub s start (!stop - start))

let int_field s key =
  Result.bind (scalar_field s key) (fun raw ->
      match int_of_string_opt (String.trim raw) with
      | Some n -> Ok n
      | None -> Error (Fmt.str "field %S is not an integer: %s" key raw))

let bool_field s key =
  Result.bind (scalar_field s key) (fun raw ->
      match bool_of_string_opt (String.trim raw) with
      | Some b -> Ok b
      | None -> Error (Fmt.str "field %S is not a boolean: %s" key raw))

(* the code unit of the four hex digits at [i], if there are four *)
let hex4 s i =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go acc i k =
    if k = 0 then Some acc
    else if i >= String.length s then None
    else Option.bind (digit s.[i]) (fun d -> go ((acc * 16) + d) (i + 1) (k - 1))
  in
  go 0 i 4

(* a double-quoted string starting at [from] and the index after it;
   undoes every escape [json_escape] writes *)
let quoted s from =
  let n = String.length s in
  if from >= n || s.[from] <> '"' then Error "expected a quoted string"
  else
    let b = Buffer.create 16 in
    let rec go i =
      if i >= n then Error "unterminated string"
      else
        match s.[i] with
        | '"' -> Ok (Buffer.contents b, i + 1)
        | '\\' when i + 1 < n -> (
          let char c =
            Buffer.add_char b c;
            go (i + 2)
          in
          match s.[i + 1] with
          | ('"' | '\\') as c -> char c
          | 'n' -> char '\n'
          | 'r' -> char '\r'
          | 't' -> char '\t'
          | 'u' -> (
            match hex4 s (i + 2) with
            | Some u when Uchar.is_valid u ->
              Buffer.add_utf_8_uchar b (Uchar.of_int u);
              go (i + 6)
            | _ -> Error "bad \\u escape")
          | c -> Error (Fmt.str "bad escape \\%c" c))
        | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go (from + 1)

let string_field s key =
  match find_sub s (Fmt.str "\"%s\":" key) 0 with
  | None -> Error (Fmt.str "missing field %S" key)
  | Some start -> Result.map fst (quoted s start)

(* ["key":["a","b",...]] — absent key reads as the empty list *)
let string_list_field s key =
  match find_sub s (Fmt.str "\"%s\":[" key) 0 with
  | None -> Ok []
  | Some start ->
    let rec go acc i =
      if i >= String.length s then Error "unterminated array"
      else
        match s.[i] with
        | ']' -> Ok (List.rev acc)
        | ',' -> go acc (i + 1)
        | _ ->
          Result.bind (quoted s i) (fun (v, next) -> go (v :: acc) next)
    in
    go [] start

(* split the [points] array into object chunks by brace depth (outcome
   objects nest no further), stepping over strings whole so a brace or
   bracket inside a point name or fault set is only text *)
let point_chunks s =
  match find_sub s "\"points\":[" 0 with
  | None -> Error "missing field \"points\""
  | Some start ->
    let rec go acc obj_start depth i =
      if i >= String.length s then
        if depth = 0 then Ok (List.rev acc) else Error "unterminated object"
      else
        match (s.[i], depth) with
        | '"', _ ->
          Result.bind (quoted s i) (fun (_, next) ->
              go acc obj_start depth next)
        | '{', 0 -> go acc i 1 (i + 1)
        | '{', d -> go acc obj_start (d + 1) (i + 1)
        | '}', 1 ->
          go (String.sub s obj_start (i + 1 - obj_start) :: acc) 0 0 (i + 1)
        | '}', d -> go acc obj_start (d - 1) (i + 1)
        | ']', 0 -> Ok (List.rev acc)
        | _ -> go acc obj_start depth (i + 1)
    in
    go [] start 0 start

let ( let* ) = Result.bind

let read_outcome chunk =
  let* r_point = string_field chunk "point" in
  let* r_strategy = string_field chunk "strategy" in
  let* r_executions = int_field chunk "executions" in
  let* r_injections = int_field chunk "injections" in
  let* r_candidates = int_field chunk "candidates" in
  let* r_exhausted = bool_field chunk "exhausted" in
  let* r_violations = int_field chunk "violations" in
  let* r_fault_set = string_list_field chunk "fault_set" in
  Ok
    {
      r_point;
      r_strategy;
      r_executions;
      r_injections;
      r_candidates;
      r_exhausted;
      r_violations;
      r_fault_set;
    }

let read_coverage s =
  let* experiment = string_field s "experiment" in
  if experiment <> "ldfi" then
    Error (Fmt.str "not an ldfi coverage document (experiment %S)" experiment)
  else
    let* max_crashes = int_field s "max_crashes" in
    let* max_drops = int_field s "max_drops" in
    let* max_injections = int_field s "max_injections" in
    let* r_wipe = bool_field s "wipe" in
    let* chunks = point_chunks s in
    let* r_outcomes =
      List.fold_left
        (fun acc chunk ->
          let* acc = acc in
          let* o = read_outcome chunk in
          Ok (o :: acc))
        (Ok []) chunks
    in
    Ok
      {
        r_budget = { Ldfi.Search.max_crashes; max_drops; max_injections };
        r_wipe;
        r_outcomes = List.rev r_outcomes;
      }

(* coverage holds for a point when nothing was found AND the search
   drained the space (a random baseline never certifies exhaustion) *)
let read_outcome_ok o =
  o.r_violations = 0 && (o.r_strategy <> "guided" || o.r_exhausted)

let read_ok r = r.r_outcomes <> [] && List.for_all read_outcome_ok r.r_outcomes

let pp_read_coverage ppf r =
  Fmt.pf ppf
    "ldfi coverage: budget %d crash / %d drop (cap %d injections), wipe %b@\n"
    r.r_budget.Ldfi.Search.max_crashes r.r_budget.Ldfi.Search.max_drops
    r.r_budget.Ldfi.Search.max_injections r.r_wipe;
  List.iter
    (fun o ->
      Fmt.pf ppf "%-10s %-7s executions %4d  injections %4d  candidates %4d  %s@\n"
        o.r_point o.r_strategy o.r_executions o.r_injections o.r_candidates
        (if o.r_violations = 0 then
           if o.r_exhausted then "exhausted, 0 violations"
           else "0 violations (not exhausted)"
         else
           Fmt.str "VIOLATION {%s}" (String.concat "; " o.r_fault_set)))
    r.r_outcomes;
  Fmt.pf ppf "verdict: %s@\n"
    (if read_ok r then "exhaustive fault coverage at this budget"
     else "coverage NOT established")

(* ------------------------------------------------------------------ *)
(* The coverage claim                                                  *)
(* ------------------------------------------------------------------ *)

(* Small enough to run inside `rlx check all`: three sites, a short
   workload, the CI failure budget.  Exhaustiveness is part of the
   claim: the search must drain the candidate space, not hit the cap. *)
let claim_config =
  {
    Chaos.Runner.default_config with
    Chaos.Runner.sites = 3;
    requests = 5;
  }

let claim_points = [ "top"; "bottom" ]
let claim_budget = Ldfi.Search.ci_budget

let run_body ppf =
  match
    run_points ~config:claim_config ~budget:claim_budget ~strategy:`Guided
      claim_points
  with
  | Error e ->
    Fmt.pf ppf "ldfi failed: %s@\n" e;
    false
  | Ok outcomes ->
    List.iter (fun o -> Fmt.pf ppf "%a@\n" pp_outcome o) outcomes;
    List.for_all
      (fun o -> o.violation = None && o.stats.Ldfi.Search.exhausted)
      outcomes

let claims () =
  [
    Relax_claims.Claim.report ~id:"ldfi/coverage" ~kind:Characterization
      ~paper:"Sections 2.3 and 3.3 (lineage-searched)"
      ~description:
        "within the CI failure budget, every lineage-derived fault set is \
         injected and no completed history escapes its point's predicted \
         language — exhaustive fault coverage, not a sample"
      ~detail:
        (Fmt.str "points %s, budget %d crash / %d drop, %d sites, %d requests"
           (String.concat "/" claim_points)
           claim_budget.Ldfi.Search.max_crashes
           claim_budget.Ldfi.Search.max_drops claim_config.Chaos.Runner.sites
           claim_config.Chaos.Runner.requests)
      run_body;
  ]

let group () =
  {
    Relax_claims.Registry.gid = "ldfi";
    title = "X-ldfi: lineage-driven fault injection (searched fault space)";
    header = "== X-ldfi: lineage-guided fault coverage ==\n";
    claims = claims ();
  }
