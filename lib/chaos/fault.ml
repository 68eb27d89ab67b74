(* The fault vocabulary: every way the chaos layer can hurt the system,
   as first-class serializable values with one application code path.

   An [action] is an instantaneous change to the simulated world — a
   site crash, a partition, a knob turning message loss on — and an
   [event] is an action at a simulation time.  A sorted event list is a
   complete fault schedule: applying it through {!apply} is the ONLY way
   faults reach the network and replica, for experiments and chaos runs
   alike, so record/replay and shrinking operate on exactly what ran. *)

open Relax_replica

type action =
  | Crash of int
  | Recover of int
  | Wipe of int (* stable-storage loss: the site's log evaporates *)
  | Partition of int list list
  | Heal
  | Drop of float (* message loss probability from now on *)
  | Duplicate of float (* message duplication probability from now on *)
  | Delay of float (* uniform extra per-message delay bound *)
  | Skew of int * float (* sender-side clock skew of one site *)
  | Omit of int * int * int (* omit one delivery: src, dst, per-pair seq *)

type event = { at : float; action : action }

let pp_action ppf = function
  | Crash s -> Fmt.pf ppf "crash %d" s
  | Recover s -> Fmt.pf ppf "recover %d" s
  | Wipe s -> Fmt.pf ppf "wipe %d" s
  | Partition cells ->
    Fmt.pf ppf "partition %a"
      Fmt.(list ~sep:(Fmt.any "|") (list ~sep:(Fmt.any ",") Fmt.int))
      cells
  | Heal -> Fmt.string ppf "heal"
  | Drop p -> Fmt.pf ppf "drop %.3f" p
  | Duplicate p -> Fmt.pf ppf "dup %.3f" p
  | Delay d -> Fmt.pf ppf "delay %.1f" d
  | Skew (s, d) -> Fmt.pf ppf "skew %d %.1f" s d
  | Omit (src, dst, seq) -> Fmt.pf ppf "omit %d>%d#%d" src dst seq

let pp_event ppf e = Fmt.pf ppf "@[%8.1f %a@]" e.at pp_action e.action

let equal_action a b =
  match (a, b) with
  | Crash x, Crash y | Recover x, Recover y | Wipe x, Wipe y -> x = y
  | Partition x, Partition y -> x = y
  | Heal, Heal -> true
  | Drop x, Drop y | Duplicate x, Duplicate y | Delay x, Delay y ->
    Float.equal x y
  | Skew (s, x), Skew (s', y) -> s = s' && Float.equal x y
  | Omit (a, b, c), Omit (a', b', c') -> a = a' && b = b' && c = c'
  | _ -> false

let equal_event a b = Float.equal a.at b.at && equal_action a.action b.action

(* The single fault-application code path: every fault anyone injects —
   a nemesis schedule, a replayed trace, an experiment's hand-placed
   partition — goes through here. *)
let apply ?replica net action =
  let module A = Relax_obs.Tracer.Ambient in
  if A.active () then
    A.instant
      ~time:(Relax_sim.Engine.now (Relax_sim.Network.engine net))
      "chaos/fault"
      ~attrs:[ Relax_obs.Attr.str "action" (Fmt.str "%a" pp_action action) ];
  match action with
  | Crash s ->
    Relax_sim.Network.crash net s;
    (* on a journaled replica a crash also loses the site's volatile
       log, keeping only the journal's synced prefix (plus torn tail);
       journal-free replicas keep the legacy stable-log semantics *)
    Option.iter (fun r -> Replica.crash_site r s) replica
  | Recover s ->
    (* only a site that actually went down restarts from its journal: a
       Recover aimed at an up site (the rejoin nemesis picks targets
       blindly) must not re-attach the journal — replay would regress
       the live clock below timestamps the site has already issued *)
    let was_down = not (Relax_sim.Network.is_up net s) in
    Relax_sim.Network.recover net s;
    if was_down then Option.iter (fun r -> Replica.recover_site r s) replica
  | Wipe s -> Option.iter (fun r -> Replica.wipe_site r s) replica
  | Partition cells -> Relax_sim.Network.partition net cells
  | Heal -> Relax_sim.Network.heal net
  | Drop p -> Relax_sim.Network.set_drop_probability net p
  | Duplicate p -> Relax_sim.Network.set_dup_probability net p
  | Delay d -> Relax_sim.Network.set_extra_delay net d
  | Skew (s, d) -> Relax_sim.Network.set_skew net s d
  | Omit (src, dst, seq) -> Relax_sim.Network.deny net ~src ~dst ~seq

(* Schedule every event of a fault schedule on the engine.  Events in
   the past of the engine clock are applied immediately (replaying into
   a fresh engine they never are). *)
let install ?replica engine net events =
  List.iter
    (fun e ->
      let now = Relax_sim.Engine.now engine in
      if e.at <= now then apply ?replica net e.action
      else
        Relax_sim.Engine.schedule_at engine ~at:e.at (fun () ->
            apply ?replica net e.action))
    events

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* A nemesis deciding its next move needs to know which sites are up and
   whether a partition is in force.  Schedules are generated offline,
   with no network, so the generator maintains this shadow.  Only
   actions routed through {!Shadow.apply} move it — which is every
   action, since nemeses emit through it. *)
module Shadow = struct
  type t = { n : int; up : bool array; mutable partitioned : bool }

  let create ~sites =
    if sites <= 0 then invalid_arg "Shadow.create: sites must be positive";
    { n = sites; up = Array.make sites true; partitioned = false }

  let sites t = t.n
  let is_up t s = t.up.(s)
  let up_count t = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 t.up
  let down_sites t =
    List.filter (fun s -> not t.up.(s)) (List.init t.n Fun.id)
  let partitioned t = t.partitioned

  let apply t = function
    | Crash s -> t.up.(s) <- false
    | Recover s -> t.up.(s) <- true
    | Partition _ -> t.partitioned <- true
    | Heal -> t.partitioned <- false
    | Wipe _ | Drop _ | Duplicate _ | Delay _ | Skew _ | Omit _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let action_to_sexp action =
  let open Sexp in
  match action with
  | Crash s -> List [ atom "crash"; int s ]
  | Recover s -> List [ atom "recover"; int s ]
  | Wipe s -> List [ atom "wipe"; int s ]
  | Partition cells ->
    List (atom "partition" :: List.map (fun c -> List (List.map int c)) cells)
  | Heal -> List [ atom "heal" ]
  | Drop p -> List [ atom "drop"; float p ]
  | Duplicate p -> List [ atom "dup"; float p ]
  | Delay d -> List [ atom "delay"; float d ]
  | Skew (s, d) -> List [ atom "skew"; int s; float d ]
  | Omit (src, dst, seq) -> List [ atom "omit"; int src; int dst; int seq ]

let int_of_sexp = function
  | Sexp.Atom a -> (
    match int_of_string_opt a with
    | Some n -> n
    | None -> raise (Sexp.Parse_error ("not an integer: " ^ a)))
  | Sexp.List _ -> raise (Sexp.Parse_error "expected integer atom")

let float_of_sexp = function
  | Sexp.Atom a -> (
    match float_of_string_opt a with
    | Some f -> f
    | None -> raise (Sexp.Parse_error ("not a float: " ^ a)))
  | Sexp.List _ -> raise (Sexp.Parse_error "expected float atom")

let action_of_sexp sx =
  match sx with
  | Sexp.List (Sexp.Atom tag :: args) -> (
    match (tag, args) with
    | "crash", [ s ] -> Crash (int_of_sexp s)
    | "recover", [ s ] -> Recover (int_of_sexp s)
    | "wipe", [ s ] -> Wipe (int_of_sexp s)
    | "partition", cells ->
      Partition
        (List.map
           (function
             | Sexp.List members -> List.map int_of_sexp members
             | Sexp.Atom _ -> raise (Sexp.Parse_error "partition: expected cell"))
           cells)
    | "heal", [] -> Heal
    | "drop", [ p ] -> Drop (float_of_sexp p)
    | "dup", [ p ] -> Duplicate (float_of_sexp p)
    | "delay", [ d ] -> Delay (float_of_sexp d)
    | "skew", [ s; d ] -> Skew (int_of_sexp s, float_of_sexp d)
    | "omit", [ src; dst; seq ] ->
      Omit (int_of_sexp src, int_of_sexp dst, int_of_sexp seq)
    | _ -> raise (Sexp.Parse_error ("unknown action " ^ tag)))
  | _ -> raise (Sexp.Parse_error "expected action")

let event_to_sexp e =
  Sexp.List [ Sexp.List [ Sexp.atom "at"; Sexp.float e.at ]; action_to_sexp e.action ]

let event_of_sexp = function
  | Sexp.List [ Sexp.List [ Sexp.Atom "at"; at ]; action ] ->
    { at = float_of_sexp at; action = action_of_sexp action }
  | _ -> raise (Sexp.Parse_error "expected ((at T) ACTION)")
