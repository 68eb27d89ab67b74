(* Pluggable reporters over engine results.

   Human: byte-identical to the pre-registry `rlx check all` output —
   each group's banner followed by each verdict's legacy rendering,
   printed verbatim.

   Json: one machine-readable document carrying every claim's id, kind,
   paper reference, status, detail, counterexample and stats; CI diffs
   the statuses and archives the document.

   Tap: Test Anything Protocol v14, one test point per claim, for
   off-the-shelf harness consumption. *)

type format = Human | Json | Tap

let format_to_string = function
  | Human -> "human"
  | Json -> "json"
  | Tap -> "tap"

let format_of_string = function
  | "human" -> Some Human
  | "json" -> Some Json
  | "tap" -> Some Tap
  | _ -> None

let pp_human ppf results =
  List.iter
    (fun ((g : Registry.group), outcomes) ->
      if g.header <> "" then Fmt.string ppf g.header;
      List.iter
        (fun (o : Engine.outcome) -> Fmt.string ppf o.verdict.Verdict.human)
        outcomes)
    results

(* --- JSON ----------------------------------------------------------- *)

let json_str s = Relax_obs.Attr.(value_to_json (Str s))

let pp_json ppf results =
  let flat =
    List.concat_map
      (fun ((g : Registry.group), outcomes) ->
        List.map (fun o -> (g.gid, o)) outcomes)
      results
  in
  let total = List.length flat in
  let failed =
    List.length
      (List.filter
         (fun (_, (o : Engine.outcome)) -> not (Verdict.ok o.verdict))
         flat)
  in
  Fmt.pf ppf "{@\n";
  Fmt.pf ppf "  \"version\": 1,@\n";
  Fmt.pf ppf "  \"ok\": %b,@\n" (failed = 0);
  Fmt.pf ppf "  \"total\": %d,@\n" total;
  Fmt.pf ppf "  \"failed\": %d,@\n" failed;
  Fmt.pf ppf "  \"claims\": [";
  List.iteri
    (fun i (gid, (o : Engine.outcome)) ->
      let c = o.claim and v = o.verdict in
      if i > 0 then Fmt.pf ppf ",";
      Fmt.pf ppf "@\n    {@\n";
      Fmt.pf ppf "      \"id\": %s,@\n" (json_str c.Claim.id);
      Fmt.pf ppf "      \"group\": %s,@\n" (json_str gid);
      Fmt.pf ppf "      \"kind\": %s,@\n"
        (json_str (Claim.kind_to_string c.kind));
      Fmt.pf ppf "      \"paper\": %s,@\n" (json_str c.paper);
      Fmt.pf ppf "      \"description\": %s,@\n" (json_str c.description);
      Fmt.pf ppf "      \"status\": %s,@\n"
        (json_str (Verdict.status_to_string v.status));
      Fmt.pf ppf "      \"detail\": %s,@\n" (json_str v.detail);
      Fmt.pf ppf "      \"counterexample\": %s,@\n"
        (match v.counterexample with
        | None -> "null"
        | Some w -> json_str w);
      Fmt.pf ppf "      \"proof_method\": %s,@\n"
        (match v.proof_method with
        | None -> "null"
        | Some m -> json_str (Verdict.proof_method_to_string m));
      Fmt.pf ppf
        "      \"stats\": { \"histories\": %d, \"visited\": %d, \
         \"memo_hits\": %d, \"obligations\": %d, \"relation\": %d, \
         \"wall_ms\": %.3f }@\n"
        v.stats.Verdict.histories v.stats.Verdict.visited
        v.stats.Verdict.memo_hits v.stats.Verdict.obligations
        v.stats.Verdict.relation
        (v.stats.Verdict.wall_s *. 1000.0);
      Fmt.pf ppf "    }")
    flat;
  Fmt.pf ppf "@\n  ]@\n}@\n"

(* --- TAP ------------------------------------------------------------ *)

let pp_tap ppf results =
  let outcomes = List.concat_map snd results in
  Fmt.pf ppf "TAP version 14@\n";
  Fmt.pf ppf "1..%d@\n" (List.length outcomes);
  List.iteri
    (fun i (o : Engine.outcome) ->
      let v = o.verdict in
      let id = o.claim.Claim.id in
      (match v.Verdict.status with
      | Verdict.Pass -> Fmt.pf ppf "ok %d - %s@\n" (i + 1) id
      | Verdict.Fail -> Fmt.pf ppf "not ok %d - %s@\n" (i + 1) id
      | Verdict.Error msg ->
        Fmt.pf ppf "not ok %d - %s # error: %s@\n" (i + 1) id msg);
      (match v.Verdict.proof_method with
      | None -> ()
      | Some m -> Fmt.pf ppf "# method: %a@\n" Verdict.pp_proof_method m);
      if (not (Verdict.ok v)) && v.detail <> "" then
        Fmt.pf ppf "# %s@\n" v.detail)
    outcomes

let pp format ppf results =
  match format with
  | Human -> pp_human ppf results
  | Json -> pp_json ppf results
  | Tap -> pp_tap ppf results
