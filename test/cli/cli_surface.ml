(* Print the option surface of every leaf command of the rlx binary
   given as the only argument: for each command path, the ARGUMENTS,
   OPTIONS and COMMON OPTIONS entry lines of its plain help (names,
   aliases, docv and absent= defaults, without the doc prose) and the
   codes of its EXIT STATUS section.  Leaves are discovered by walking
   the COMMANDS sections from the root, so an added or dropped command
   changes the output too. *)

(* An entry line is indented by exactly seven spaces, its doc prose by
   eleven.  An entry starts after a blank line or a section title; a
   seven-space line right after an entry line continues it (cmdliner
   wraps long synopses). *)
let entry line =
  String.length line > 7
  && String.sub line 0 7 = "       "
  && line.[7] <> ' '

let title line = line <> "" && line.[0] <> ' '

(* The entries of each section, in order, keyed by section title. *)
let sections lines =
  let text line = String.sub line 7 (String.length line - 7) in
  let rec go section prev acc = function
    | [] -> List.rev acc
    | line :: rest when title line -> go line line acc rest
    | line :: rest when entry line && entry prev -> (
      match acc with
      | (s, e) :: acc' -> go section line ((s, e ^ " " ^ text line) :: acc') rest
      | [] -> go section line acc rest)
    | line :: rest when entry line ->
      go section line ((section, text line) :: acc) rest
    | line :: rest -> go section line acc rest
  in
  go "" "" [] lines

let first_word s =
  match String.index_opt s ' ' with Some i -> String.sub s 0 i | None -> s

let rec walk rlx path =
  let entries = sections (Help.lines rlx path) in
  let subcommands =
    List.filter_map
      (fun (s, e) -> if s = "COMMANDS" then Some (first_word e) else None)
      entries
  in
  if subcommands <> [] then
    List.iter (fun c -> walk rlx (path @ [ c ])) subcommands
  else begin
    Printf.printf "rlx %s\n" (String.concat " " path);
    List.iter
      (fun (s, e) ->
        match s with
        | "ARGUMENTS" | "OPTIONS" | "COMMON OPTIONS" ->
          Printf.printf "  %s\n" e
        | "EXIT STATUS" when e.[0] >= '0' && e.[0] <= '9' ->
          Printf.printf "  exit %s\n" (first_word e)
        | _ -> ())
      entries
  end

let () = walk Sys.argv.(1) []
