(* perfbench: the repo's benchmark.

     bench.exe --workload verify|faults|load|relax --seed N --seconds S
               --trace 0|1 [--smoke] [--spans-out FILE]

   Set-up runs several times and reports its upper quartile.  Timed
   units then repeat until --seconds is spent (at least three, so the
   deterministic counters can be compared past the first).  With
   --trace 1 untraced and traced units alternate: end-to-end numbers
   come from the untraced ones, per-layer numbers from the traced ones,
   and the difference is the tracing overhead.  The correctness gates
   run outside every timed phase.

   Human-readable lines first; the last line is one JSON object with the
   keys correct, attempted, failed and metrics (end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1).  run.py builds this
   program and shapes that line to BENCHMARK.json. *)

open Measure

let workloads = [ Wl_verify.workload; Wl_faults.workload; Wl_load.workload; Wl_relax.workload ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload verify|faults|load|relax --seed N --seconds S --trace 0|1 \
     [--smoke] [--spans-out FILE]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and spans_out = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--spans-out" :: f :: rest -> spans_out := Some f; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match
    (List.find_opt (fun w -> w.name = !workload) workloads, !seed, !seconds, !trace)
  with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    (w, { seed; seconds; trace; smoke = !smoke }, !spans_out)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

let pr fmt = Printf.printf (fmt ^^ "\n%!")
let fmt_v v = Printf.sprintf "%.6g" v

(* The end-to-end metric each phase's time feeds. *)
let e2e_of_phase = function
  | "load_s" -> "sim_ops_per_s"
  | "queue_s" -> "queue_mops"
  | "locked_s" -> "locked_mops"
  | p -> p

(* Counters that differ between the units that report them.  The first
   unit also pays one-time lazy initialisation (a domain's
   Language.Stats cell, for one), so GC words compare from the second
   reporting unit on. *)
let unrepeated samples =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem tbl k) then order := k :: !order;
          Hashtbl.replace tbl k (Option.value ~default:[] (Hashtbl.find_opt tbl k) @ [ v ]))
        s.counters)
    samples;
  let names = List.rev !order in
  let compared k vs =
    match vs with
    | _ :: (_ :: _ as rest) when String.starts_with ~prefix:"gc." k -> rest
    | _ -> vs
  in
  ( List.length names,
    List.filter_map
      (fun k ->
        match List.sort_uniq compare (compared k (Hashtbl.find tbl k)) with
        | [ _ ] -> None
        | vs -> Some (k, vs))
      names )

(* Per phase: untraced and traced time, the traced units' layer self
   times and the remainder no layer call explains. *)
let reconcile ~untraced ~setup_times =
  let spans = Spans.all () in
  let self = Spans.self_times spans in
  let phases =
    ("setup_s", setup_times)
    :: List.map
         (fun (p, _) -> (p, List.map (fun s -> List.assoc p s.phases) untraced))
         (match untraced with s :: _ -> s.phases | [] -> [])
  in
  List.map
    (fun (p, u) ->
      let roots = List.filter (fun (s : Spans.span) -> s.name = p && s.parent = 0) spans in
      let n = fi (max 1 (List.length roots)) in
      let by_layer = Hashtbl.create 8 in
      List.iter
        (fun root ->
          List.iter
            (fun (s : Spans.span) ->
              Hashtbl.replace by_layer s.layer
                (Hashtbl.find self s.id /. n
                +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
            (Spans.descendants spans root))
        roots;
      let traced_mean = sum (List.map Spans.duration roots) /. n in
      let unexplained = sum (List.map (fun (r : Spans.span) -> Hashtbl.find self r.id) roots) /. n in
      ( p,
        median u,
        traced_mean,
        List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []),
        unexplained ))
    phases

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let spread ~unit_ vs =
  Printf.sprintf "%s of %d: median %s, min %s, max %s"
    (if String.ends_with ~suffix:"/s" unit_ then "lower quartile"
     else if unit_ = "s" then "upper quartile"
     else "median")
    (List.length vs) (fmt_v (median vs))
    (fmt_v (List.fold_left min infinity vs))
    (fmt_v (List.fold_left max neg_infinity vs))

let print_layers per_layer ~e2e ~traced =
  let value name = List.find_map (fun (n, v, _, _) -> if n = name then Some v else None) e2e in
  pr "";
  pr "per-layer metrics (median of %d traced units; probes on fixed inputs)" traced;
  pr "%-32s %-12s %-12s %s" "metric" "value" "unit" "should move";
  List.iter
    (fun (m : metric) ->
      let target e =
        match value e with Some v -> Printf.sprintf "%s (%s)" e (fmt_v v) | None -> e
      in
      pr "%-32s %-12s %-12s %s" m.name (fmt_v m.value) m.unit_
        (String.concat ", "
           (List.map (fun e -> target (String.trim e)) (String.split_on_char ',' m.moves))))
    per_layer

let print_reconciliation rows =
  pr "";
  pr "reconciliation (seconds; untraced = median, traced = mean of the traced units' root spans)";
  pr "%-10s %-14s %-10s %-10s %-10s %-11s %s" "phase" "e2e metric" "untraced" "traced"
    "overhead" "unexplained" "layer self times";
  List.iter
    (fun (p, u, t, by_layer, unexplained) ->
      pr "%-10s %-14s %-10s %-10s %-10s %-11s %s" p (e2e_of_phase p) (fmt_v u) (fmt_v t)
        (Printf.sprintf "%+.3g%%" (100.0 *. (t -. u) /. u))
        (fmt_v unexplained)
        (String.concat ", " (List.map (fun (l, v) -> Printf.sprintf "%s %s" l (fmt_v v)) by_layer)))
    rows

let () =
  let w, cfg, spans_out = parse_args () in
  pr "== perfbench: workload %s, seed %d, %g s, trace %s%s ==" w.name cfg.seed cfg.seconds
    (if cfg.trace then "on" else "off")
    (if cfg.smoke then ", smoke sizes" else "");
  (* set-up, 15 times, keeping only the last instance (the cold first
     set-up sits above the upper quartile); in a traced run one more,
     recorded *)
  let setup () = Spans.time ~layer:"perfbench" "setup_s" (fun () -> w.setup cfg) in
  let n_setups = if cfg.smoke then 3 else 15 in
  let setup_times = List.init (n_setups - 1) (fun _ -> snd (setup ())) in
  let inst, last = setup () in
  let setup_times = setup_times @ [ last ] in
  let setup_s = typical ~unit_:"s" setup_times in
  let inst = if cfg.trace then fst (Spans.with_recording 0 setup) else inst in
  (* timed units; a traced run alternates untraced and traced ones *)
  let min_units = if cfg.trace then 4 else 3 in
  let t0 = Unix.gettimeofday () in
  let rec loop i acc =
    let traced = cfg.trace && i mod 2 = 1 in
    let s =
      if traced then Spans.with_recording (i + 1) (fun () -> inst.run ~traced:true)
      else inst.run ~traced:false
    in
    let acc = (traced, s) :: acc in
    let usual = median (List.map (fun (_, s) -> s.wall) acc) in
    if i + 1 < min_units || Unix.gettimeofday () -. t0 +. usual <= cfg.seconds then
      loop (i + 1) acc
    else List.rev acc
  in
  let units = loop 0 [] in
  let peak_heap_mb = fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1e6 in
  let untraced = List.filter_map (fun (t, s) -> if t then None else Some s) units in
  let traced = List.filter_map (fun (t, s) -> if t then Some s else None) units in
  let all = List.map snd units in
  (* correctness: the units' own gates plus the untimed one *)
  let g, gate_s = Spans.time ~layer:"perfbench" "gate" inst.gate in
  let attempted = g.g_attempted + List.fold_left (fun n s -> n + s.attempted) 0 all in
  let failed = g.g_failed + List.fold_left (fun n s -> n + s.failed) 0 all in
  let problems = List.sort_uniq compare (g.g_problems @ List.concat_map (fun s -> s.problems) all) in
  (* end-to-end, from the untraced units: (name, value, unit, how) *)
  let walls = List.map (fun s -> s.wall) untraced in
  let unit_s = typical ~unit_:"s" walls in
  let named =
    List.map
      (fun (m : metric) ->
        let vs =
          List.map (fun s -> (List.find (fun (x : metric) -> x.name = m.name) s.named).value) untraced
        in
        (m.name, typical ~unit_:m.unit_ vs, m.unit_, spread ~unit_:m.unit_ vs))
      (List.hd untraced).named
  in
  let e2e =
    [
      ("setup_s", setup_s, "s", spread ~unit_:"s" setup_times ^ " set-ups");
      ("unit_s", unit_s, "s", spread ~unit_:"s" walls ^ " untraced units");
    ]
    @ named
    @ [
        ("peak_heap_mb", peak_heap_mb, "MB", "GC top heap at the end of the timed units");
        ( "failed_share",
          (if attempted = 0 then 0.0 else fi failed /. fi attempted),
          "ratio",
          Printf.sprintf "%d failed of %d checked (untimed gate %.3g s)" failed attempted gate_s );
      ]
  in
  pr "%-16s %-12s %-8s %s" "metric" "value" "unit" "how";
  List.iter (fun (n, v, u, how) -> pr "%-16s %-12s %-8s %s" n (fmt_v v) u how) e2e;
  List.iter (fun p -> pr "GATE FAILED: %s" p) problems;
  let n_counters, bad = unrepeated all in
  if bad = [] then
    pr "repeat check: %d deterministic counters repeat exactly across %d units" n_counters
      (List.length all)
  else
    List.iter
      (fun (k, vs) -> pr "repeat check: %s does not repeat: %s" k (String.concat " | " vs))
      bad;
  let metrics =
    if not cfg.trace then [ metric "setup_s" "s" setup_s; metric "unit_s" "s" unit_s ]
    else begin
      let probes = Spans.with_recording (-1) (fun () -> Probes.metrics cfg) in
      let rows = reconcile ~untraced ~setup_times in
      (* per-layer values: the median over the traced units *)
      let layers =
        List.concat_map (fun s -> s.layers) traced
        |> List.map (fun (m : metric) -> m.name)
        |> List.sort_uniq compare
        |> List.map (fun name ->
               let ms =
                 List.concat_map
                   (fun s -> List.filter (fun (m : metric) -> m.name = name) s.layers)
                   traced
               in
               { (List.hd ms) with value = median (List.map (fun (m : metric) -> m.value) ms) })
      in
      let traced_unit = median (List.map (fun s -> s.wall) traced) in
      let unexplained =
        sum (List.filter_map (fun (p, _, _, _, u) -> if p = "setup_s" then None else Some u) rows)
      in
      let per_layer =
        layers @ probes
        @ [
            metric ~moves:"peak_heap_mb" "gc.top_heap_mb" "MB" peak_heap_mb;
            metric ~moves:"unit_s" "trace.overhead_share" "ratio"
              ((traced_unit -. median walls) /. median walls);
            metric ~moves:"unit_s" "trace.unexplained_share" "ratio" (unexplained /. traced_unit);
          ]
      in
      print_layers per_layer ~e2e ~traced:(List.length traced);
      print_reconciliation rows;
      Option.iter
        (fun path ->
          let spans = Spans.all () in
          Spans.write path spans;
          pr "spans: %d written to %s" (List.length spans) path)
        spans_out;
      per_layer
    end
  in
  print_endline
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
       (failed = 0 && attempted > 0) attempted failed
       (String.concat ", "
          (List.map
             (fun (m : metric) ->
               Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote m.name)
                 (Json.number m.value) (Json.quote m.unit_))
             metrics)))
