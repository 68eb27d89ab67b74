(* Workload `verify`: the 39 language-level claims of the pq, collapses,
   account, fig42 and fifo groups at depth 8, one domain, each through
   Relax_claims.Engine.run_claim — what a spec author waits on.  The
   live relax claims (schedule-dependent cost) and the simulation-backed
   claims (measured by `faults`) are left out.  No seed: the claims are
   exhaustive. *)

open Measure
module Claims = Relax_claims
module Stats = Relax_core.Language.Stats

let groups = [ "pq"; "fifo"; "collapses"; "account"; "fig42" ]
let depth cfg = if cfg.smoke then 5 else 8

(* id -> (status, proof method or "null"), from expected_claims.json,
   read when the first pass is judged *)
let expected =
  lazy
    (Json.read_file "expected_claims.json"
    |> Json.to_list
    |> List.map (fun c ->
           let m =
             match Json.field "proof_method" c with
             | Json.Null -> "null"
             | v -> Json.to_string v
           in
           (Json.to_string (Json.field "id" c), (Json.to_string (Json.field "status" c), m))))

type claim_run = {
  gid : string;
  claim : Claims.Claim.t;
  verdict : Claims.Verdict.t;
  stats : Stats.t;
  wall : float;
}

let method_of (v : Claims.Verdict.t) =
  match v.proof_method with
  | None -> "null"
  | Some m -> Claims.Verdict.proof_method_to_string m

let run_pass claims =
  List.map
    (fun (gid, (claim : Claims.Claim.t)) ->
      let o, wall =
        Spans.time ~layer:"claims" ("Engine.run_claim " ^ claim.id) (fun () ->
            Claims.Engine.run_claim claim)
      in
      (* run_claim resets the domain's counters before the thunk and
         leaves them standing after it *)
      { gid; claim; verdict = o.Claims.Engine.verdict; stats = Stats.read (); wall })
    claims

let layers runs ~minor ~majors =
  let total f = List.fold_left (fun acc r -> acc + f r.stats) 0 runs in
  let time_if p = sum (List.filter_map (fun r -> if p r then Some r.wall else None) runs) in
  let pairs = total (fun s -> s.Stats.visited) and hits = total (fun s -> s.Stats.memo_hits) in
  let claims_by m = fi (List.length (List.filter (fun r -> method_of r.verdict = m) runs)) in
  let v = "verify_s" in
  List.map
    (fun g -> metric ~moves:v ("claims.group_s." ^ g) "s" (time_if (fun r -> r.gid = g)))
    groups
  @ [
      metric ~moves:v "proof.sim_claims_s" "s" (time_if (fun r -> method_of r.verdict = "simulation"));
      metric ~moves:v "proof.enum_claims_s" "s" (time_if (fun r -> method_of r.verdict = "bounded"));
      metric ~moves:v "core.histories" "count" (fi (total (fun s -> s.Stats.histories)));
      metric ~moves:v "core.product_pairs" "count" (fi pairs);
      metric ~moves:v "core.memo_hits" "count" (fi hits);
      metric ~moves:v "core.memo_hit_ratio" "ratio"
        (if pairs + hits = 0 then 0.0 else fi hits /. fi (pairs + hits));
      metric ~moves:v "proof.obligations" "count" (fi (total (fun s -> s.Stats.obligations)));
      metric ~moves:v "proof.relation" "count" (fi (total (fun s -> s.Stats.relation)));
      (* claims by the method that decided them: certified simulation,
         or the bounded-enumeration fallback *)
      metric ~moves:v "proof.synthesized" "count" (claims_by "simulation");
      metric ~moves:v "proof.fallbacks" "count" (claims_by "bounded");
      metric ~moves:"peak_heap_mb" "gc.minor_words.verify" "words" minor;
      metric ~moves:"peak_heap_mb" "gc.major_collections.verify" "count" (fi majors);
    ]

let workload =
  {
    name = "verify";
    setup =
      (fun cfg ->
        let registry, _ =
          Spans.time ~layer:"claims" "Catalog.registry" (fun () ->
              Relax_experiments.Catalog.registry ~depth:(depth cfg)
                ~strategy:Relax_proof.Strategy.Auto ())
        in
        let claims =
          Claims.Registry.groups registry
          |> List.filter (fun (g : Claims.Registry.group) -> List.mem g.gid groups)
          |> List.concat_map (fun (g : Claims.Registry.group) ->
                 List.map (fun c -> (g.gid, c)) g.claims)
        in
        let run ~traced =
          let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
          let runs, wall = Spans.time ~layer:"perfbench" "verify_s" (fun () -> run_pass claims) in
          let minor = Gc.minor_words () -. minor0
          and majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
          let problems =
            List.filter_map
              (fun r ->
                let got = (Claims.Verdict.status_to_string r.verdict.status, method_of r.verdict) in
                match List.assoc_opt r.claim.id (Lazy.force expected) with
                | Some want when want = got -> None
                | Some (ws, wm) ->
                  Some
                    (Printf.sprintf "%s: %s/%s, expected %s/%s" r.claim.id (fst got) (snd got) ws wm)
                | None -> Some (r.claim.id ^ ": not in expected_claims.json"))
              runs
          in
          let total f = List.fold_left (fun acc r -> acc + f r.stats) 0 runs in
          {
            wall;
            phases = [ ("verify_s", wall) ];
            named = [ metric "verify_s" "s" wall ];
            counters =
              [
                ("core.histories", string_of_int (total (fun s -> s.Stats.histories)));
                ("core.product_pairs", string_of_int (total (fun s -> s.Stats.visited)));
                ("core.memo_hits", string_of_int (total (fun s -> s.Stats.memo_hits)));
                ("proof.obligations", string_of_int (total (fun s -> s.Stats.obligations)));
                ("proof.relation", string_of_int (total (fun s -> s.Stats.relation)));
              ]
              @ (if traced then [] else [ ("gc.minor_words.verify", Json.number minor) ]);
            attempted = List.length runs;
            failed = List.length problems;
            problems;
            layers = (if traced then layers runs ~minor ~majors else []);
          }
        in
        { run; gate = (fun () -> no_gate) });
  }
