open Relax_obs

(* The observability layer: span nesting and the monotonized timeline,
   histogram bucket boundaries, registry merge across real domains,
   exporter well-formedness (JSON lines parse; Chrome trace_event
   timestamps are monotone per thread), and the golden-trace determinism
   of instrumented runs — same seed, any job count, byte-identical
   sorted exports. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, enough to validate the exporters' output.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad_json (Fmt.str "expected %C at offset %d" c !pos))
  in
  let literal word value =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else raise (Bad_json (Fmt.str "bad literal at offset %d" !pos))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad_json "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then raise (Bad_json "truncated \\u escape");
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char buf (Char.chr (code land 0xff))
        | _ -> raise (Bad_json "bad escape"));
        go ()
      | Some c ->
        if Char.code c < 0x20 then
          raise (Bad_json "unescaped control character");
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad_json "empty number");
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad_json "expected , or } in object")
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> raise (Bad_json "expected , or ] in array")
        in
        elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> raise (Bad_json "empty input")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_num name j =
  match member name j with
  | Some (Num f) -> f
  | _ -> Alcotest.failf "missing number %S" name

let get_str name j =
  match member name j with
  | Some (Str s) -> s
  | _ -> Alcotest.failf "missing string %S" name

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let kinds_of t =
  List.map
    (fun (e : Tracer.event) ->
      ( e.Tracer.name,
        match e.Tracer.kind with
        | Tracer.Begin -> "B"
        | Tracer.End -> "E"
        | Tracer.Instant -> "i"
        | Tracer.Counter _ -> "C"
        | Tracer.Complete _ -> "X" ))
    (Tracer.events t)

let tracer_tests =
  [
    Alcotest.test_case "spans nest and close innermost-first" `Quick (fun () ->
        let t = Tracer.create () in
        Tracer.begin_span t "outer";
        Alcotest.(check int) "depth 1" 1 (Tracer.depth t);
        Tracer.begin_span t "inner";
        Alcotest.(check int) "depth 2" 2 (Tracer.depth t);
        Tracer.end_span t ();
        Tracer.end_span t ();
        Alcotest.(check int) "closed" 0 (Tracer.depth t);
        Alcotest.(check (list (pair string string)))
          "B/E order"
          [ ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E") ]
          (kinds_of t));
    Alcotest.test_case "end_span without an open span raises" `Quick (fun () ->
        let t = Tracer.create () in
        Alcotest.check_raises "empty stack"
          (Invalid_argument "Tracer.end_span: no open span") (fun () ->
            Tracer.end_span t ()));
    Alcotest.test_case "set_attr lands on the innermost open span" `Quick
      (fun () ->
        let t = Tracer.create () in
        Tracer.begin_span t "outer";
        Tracer.begin_span t "inner";
        Tracer.set_attr t (Attr.int "k" 1);
        Tracer.end_span t ();
        Tracer.end_span t ();
        let attrs_of name =
          List.filter_map
            (fun (e : Tracer.event) ->
              if e.Tracer.name = name && e.Tracer.kind = Tracer.End then
                Some e.Tracer.attrs
              else None)
            (Tracer.events t)
        in
        Alcotest.(check int)
          "inner carries the attr" 1
          (List.length (List.concat (attrs_of "inner")));
        Alcotest.(check int)
          "outer does not" 0
          (List.length (List.concat (attrs_of "outer"))));
    Alcotest.test_case "with_span marks a raising body" `Quick (fun () ->
        let t = Tracer.create () in
        (try Tracer.with_span t "risky" (fun () -> failwith "boom")
         with Failure _ -> ());
        match List.rev (Tracer.events t) with
        | { Tracer.kind = Tracer.End; attrs = [ ("raised", Attr.Bool true) ]; _ }
          :: _ ->
          ()
        | _ -> Alcotest.fail "expected a raised=true End event");
    Alcotest.test_case "timestamps are monotone across epochs" `Quick
      (fun () ->
        let t = Tracer.create () in
        Tracer.instant t ~time:5.0 "a";
        Tracer.instant t ~time:7.5 "b";
        Tracer.instant t "untimed";
        (* a second engine restarting its clock at 0 must not rewind *)
        Tracer.instant t ~time:0.0 "regressed";
        Tracer.instant t ~time:2.0 "resumed";
        let ts = List.map (fun (e : Tracer.event) -> e.Tracer.ts) (Tracer.events t) in
        Alcotest.(check (list (float 0.001)))
          "monotonized" [ 5.0; 7.5; 8.5; 9.5; 11.5 ] ts);
    Alcotest.test_case "ambient emitters are silent with no tracer" `Quick
      (fun () ->
        Alcotest.(check bool) "inactive" false (Tracer.Ambient.active ());
        (* none of these may raise *)
        Tracer.Ambient.instant "x";
        Tracer.Ambient.end_span ();
        Tracer.Ambient.set_attr (Attr.int "k" 1);
        let t = Tracer.create () in
        Tracer.Ambient.with_tracer t (fun () ->
            Alcotest.(check bool) "active" true (Tracer.Ambient.active ());
            Tracer.Ambient.instant "seen";
            Tracer.Ambient.without (fun () ->
                Alcotest.(check bool)
                  "suppressed" false
                  (Tracer.Ambient.active ());
                Tracer.Ambient.instant "unseen"));
        Alcotest.(check bool) "restored" false (Tracer.Ambient.active ());
        Alcotest.(check (list (pair string string)))
          "only the uninhibited instant" [ ("seen", "i") ] (kinds_of t));
  ]

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let histogram_tests =
  [
    Alcotest.test_case "bounds are inclusive upper bounds" `Quick (fun () ->
        let h = Metrics.Histogram.create ~bounds:[| 1.0; 2.0; 5.0 |] () in
        List.iter (Metrics.Histogram.observe h)
          [ 0.5; 1.0; 1.0001; 2.0; 5.0; 5.0001 ];
        Alcotest.(check (array int))
          "bucket counts" [| 2; 2; 1; 1 |]
          (Metrics.Histogram.bucket_counts h);
        Alcotest.(check int) "count" 6 (Metrics.Histogram.count h));
    Alcotest.test_case "quantile over buckets is nearest-rank" `Quick
      (fun () ->
        let h = Metrics.Histogram.create ~bounds:[| 1.0; 2.0; 5.0 |] () in
        Alcotest.(check (option (float 0.001)))
          "empty" None
          (Metrics.Histogram.quantile h 0.5);
        List.iter (Metrics.Histogram.observe h) [ 0.5; 0.6; 1.5; 4.0 ];
        Alcotest.(check (option (float 0.001)))
          "p50 hits the first bucket" (Some 1.0)
          (Metrics.Histogram.quantile h 0.5);
        Alcotest.(check (option (float 0.001)))
          "p100 hits the last occupied bound" (Some 5.0)
          (Metrics.Histogram.quantile h 1.0);
        (* overflow bucket reports the exact maximum seen *)
        Metrics.Histogram.observe h 123.0;
        Alcotest.(check (option (float 0.001)))
          "overflow quantile" (Some 123.0)
          (Metrics.Histogram.quantile h 1.0));
    Alcotest.test_case "create validates bounds" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Histogram.create: no bounds") (fun () ->
            ignore (Metrics.Histogram.create ~bounds:[||] ()));
        Alcotest.check_raises "non-increasing"
          (Invalid_argument "Histogram.create: bounds must be strictly increasing")
          (fun () ->
            ignore (Metrics.Histogram.create ~bounds:[| 1.0; 1.0 |] ())));
    Alcotest.test_case "merge requires identical bounds" `Quick (fun () ->
        let a = Metrics.Histogram.create ~bounds:[| 1.0; 2.0 |] () in
        let b = Metrics.Histogram.create ~bounds:[| 1.0; 3.0 |] () in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Histogram.merge_into: bound mismatch") (fun () ->
            Metrics.Histogram.merge_into ~dst:a b));
  ]

(* ------------------------------------------------------------------ *)
(* Cross-domain registry merge                                         *)
(* ------------------------------------------------------------------ *)

let merge_tests =
  [
    Alcotest.test_case "registries recorded on domains merge exactly" `Quick
      (fun () ->
        let parts =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  let m = Metrics.create () in
                  Metrics.incr ~by:(d + 1) m "ops";
                  Metrics.observe m "lat" (float_of_int d);
                  Metrics.Histogram.observe
                    (Metrics.histogram m "h")
                    (float_of_int d +. 0.4);
                  m))
          |> List.map Domain.join
        in
        let dst = Metrics.create () in
        List.iter (fun src -> Metrics.merge_into ~dst src) parts;
        Alcotest.(check int) "counters add" 10 (Metrics.count dst "ops");
        Alcotest.(check (option (float 0.001)))
          "series concatenate" (Some 1.5) (Metrics.mean dst "lat");
        Alcotest.(check int)
          "series size" 4
          (List.length (Metrics.observations dst "lat"));
        let h = Metrics.histogram dst "h" in
        Alcotest.(check int) "histograms merge" 4 (Metrics.Histogram.count h);
        Alcotest.(check (float 0.001)) "sums add" 7.6 (Metrics.Histogram.sum h));
  ]

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* A small two-thread event list exercising every kind. *)
let sample_events () =
  let a = Tracer.create ~tid:0 () in
  Tracer.begin_span a ~time:1.0 "phase" ~attrs:[ Attr.str "who" "a\"b" ];
  Tracer.instant a ~time:2.0 "tick";
  Tracer.counter a ~time:3.0 "queue" 4.0;
  Tracer.end_span a ~time:5.0 ();
  Tracer.complete a ~time:6.0 ~dur:1.5 "claim/x";
  let b = Tracer.create ~tid:1 () in
  Tracer.instant b ~time:1.5 "tick";
  Export.sort (Tracer.events a @ Tracer.events b)

let export_tests =
  [
    Alcotest.test_case "every JSON-lines record parses" `Quick (fun () ->
        let out = Export.to_string Export.Jsonl (sample_events ()) in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
        in
        Alcotest.(check int) "one line per event" 6 (List.length lines);
        List.iter
          (fun line ->
            let j = parse_json line in
            ignore (get_num "ts" j);
            ignore (get_num "tid" j);
            ignore (get_str "ph" j);
            ignore (get_str "name" j))
          lines);
    Alcotest.test_case "chrome export is schema-valid trace_event JSON"
      `Quick (fun () ->
        let doc = parse_json (Export.to_string Export.Chrome (sample_events ())) in
        let events =
          match member "traceEvents" doc with
          | Some (Arr evs) -> evs
          | _ -> Alcotest.fail "no traceEvents array"
        in
        Alcotest.(check int) "event count" 6 (List.length events);
        let seen_ts : (int, float) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun e ->
            let ph = get_str "ph" e in
            Alcotest.(check bool)
              "known phase" true
              (List.mem ph [ "B"; "E"; "i"; "C"; "X" ]);
            let ts = get_num "ts" e in
            let tid = int_of_float (get_num "tid" e) in
            ignore (get_num "pid" e);
            (* timestamps non-decreasing per thread, in sorted order *)
            (match Hashtbl.find_opt seen_ts tid with
            | Some prev ->
              Alcotest.(check bool) "ts monotone per tid" true (ts >= prev)
            | None -> ());
            Hashtbl.replace seen_ts tid ts;
            match ph with
            | "X" -> ignore (get_num "dur" e)
            | "i" -> ignore (get_str "s" e)
            | "C" -> (
              match member "args" e with
              | Some args -> ignore (get_num "value" args)
              | None -> Alcotest.fail "counter without args")
            | _ -> ())
          events);
    Alcotest.test_case "attribute escaping survives a JSON round-trip" `Quick
      (fun () ->
        let events = sample_events () in
        let doc = parse_json (Export.to_string Export.Chrome events) in
        match member "traceEvents" doc with
        | Some (Arr (first :: _)) -> (
          match member "args" first with
          | Some args ->
            Alcotest.(check string) "escaped quote" "a\"b" (get_str "who" args)
          | None -> Alcotest.fail "span lost its attrs")
        | _ -> Alcotest.fail "no events");
    Alcotest.test_case "sort is stable on (ts, tid) ties" `Quick (fun () ->
        let t = Tracer.create () in
        Tracer.instant t ~time:1.0 "first";
        Tracer.instant t ~time:0.0 "second";
        (* 0.0 monotonizes to a LATER ts: emission order is preserved *)
        Tracer.instant t ~time:0.0 "third";
        let names =
          List.map
            (fun (e : Tracer.event) -> e.Tracer.name)
            (Export.sort (Tracer.events t))
        in
        Alcotest.(check (list string))
          "order" [ "first"; "second"; "third" ] names);
  ]

(* ------------------------------------------------------------------ *)
(* Golden traces: determinism of the instrumented runs                 *)
(* ------------------------------------------------------------------ *)

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
      | Error e -> Alcotest.fail e
      | Ok trace -> (
        match X.run_trace trace with
        | Error e -> Alcotest.fail e
        | Ok _ -> ()));
  Export.to_string Export.Jsonl (Export.sort (Tracer.events tracer))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let at_jobs jobs f =
  Relax_parallel.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Relax_parallel.Pool.set_default_jobs 1) f

let golden_case name golden produce =
  Alcotest.test_case name `Quick (fun () ->
      let one = at_jobs 1 produce in
      let four = at_jobs 4 produce in
      Alcotest.(check string) "jobs 1 = jobs 4" one four;
      Alcotest.(check string)
        (Fmt.str "matches golden/%s" golden)
        (read_file ("golden/" ^ golden))
        one)

let golden_tests =
  [
    golden_case "chaos trace is byte-stable at any job count"
      "trace_chaos_small.jsonl" chaos_trace;
  ]

let () =
  Alcotest.run "obs"
    [
      ("tracer", tracer_tests);
      ("histogram", histogram_tests);
      ("merge", merge_tests);
      ("export", export_tests);
      ("golden", golden_tests);
    ]
