(* Every name list in rlx's help text is generated from the table that
   owns it: each command's help must name every lattice point, nemesis
   or claim group that the command accepts.  The only argument is the
   rlx binary; exits 1 listing each missing name. *)

module X = Relax_experiments.Chaos_scenarios

(* The help text with its line breaks and indentation folded into
   single spaces, so a list wrapped over two lines still reads whole. *)
let text rlx path =
  String.concat " " (List.map String.trim (Help.lines rlx path))

let is_word_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* [name] occurs in [s] as a whole word. *)
let mentions s name =
  let n = String.length name and len = String.length s in
  let rec from i =
    i + n <= len
    && ((String.sub s i n = name
        && (i = 0 || not (is_word_char s.[i - 1]))
        && (i + n = len || not (is_word_char s.[i + n])))
       || from (i + 1))
  in
  from 0

let () =
  let rlx = Sys.argv.(1) in
  let nemeses = List.map fst Relax_chaos.Nemesis.known in
  let groups =
    Relax_claims.Registry.group_ids (Relax_experiments.Catalog.registry ())
  in
  let missing =
    List.concat_map
      (fun (path, names) ->
        let s = text rlx path in
        List.filter_map
          (fun name ->
            if mentions s name then None
            else
              Some
                (Printf.sprintf "rlx %s --help lacks %s"
                   (String.concat " " path) name))
          names)
      [
        ([ "check" ], groups);
        ([ "chaos"; "run" ], X.names @ nemeses);
        ([ "ldfi"; "run" ], X.names);
        ([ "ldfi"; "hunt" ], X.names);
        ([ "trace"; "chaos" ], X.names);
        ([ "degrade"; "sweep" ], nemeses);
        ([ "degrade"; "run" ], nemeses);
        ([ "load" ], Relax_experiments.Taxi.point_names);
      ]
  in
  List.iter prerr_endline missing;
  exit (if missing = [] then 0 else 1)
