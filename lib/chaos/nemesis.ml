(* Nemesis combinators: composable, parameterized, seedable fault
   generators in the style of deterministic-simulation test kits.

   A nemesis is a stepper: at each decision point it draws from its own
   RNG stream, consults the shadow state (which sites are up, whether a
   partition is in force), emits zero or more fault actions and applies
   them to the shadow so later deciders in the same round see their
   effect.  {!generate} drives a list of nemeses over a tick grid
   against a standalone shadow, producing the timed fault schedule a
   chaos run installs and a trace records.

   Combinators with memory (toggling windows, rejoin countdowns) carry
   their state in closures: construct a fresh nemesis per run. *)

type t = {
  name : string;
  step : Relax_sim.Rng.t -> Fault.Shadow.t -> Fault.action list;
}

let name t = t.name

(* Emit [actions], threading them through the shadow. *)
let emit shadow actions =
  List.iter (Fault.Shadow.apply shadow) actions;
  actions

(* Recover the lowest-numbered down sites until [min_up] are up — the
   "never let every site die" guard. *)
let enforce_min_up shadow ~min_up =
  let rec go acc =
    if Fault.Shadow.up_count shadow >= min_up then List.rev acc
    else
      match Fault.Shadow.down_sites shadow with
      | [] -> List.rev acc
      | s :: _ ->
        Fault.Shadow.apply shadow (Fault.Recover s);
        go (Fault.Recover s :: acc)
  in
  go []

(* Crash/recover churn: each up site crashes with [crash_p], each down
   site recovers with [recover_p]; at least [min_up] sites survive.
   [wipe] turns every crash into an amnesia crash (the log evaporates),
   which deliberately breaks the stable-storage assumption. *)
let crash_churn ~nemesis_name ~wipe ?(crash_p = 0.15) ?(recover_p = 0.5)
    ?(min_up = 1) () =
  {
    name = nemesis_name;
    step =
      (fun rng shadow ->
        let n = Fault.Shadow.sites shadow in
        let actions = ref [] in
        for s = 0 to n - 1 do
          if Fault.Shadow.is_up shadow s then begin
            if Relax_sim.Rng.bool rng crash_p then
              actions :=
                !actions
                @ emit shadow
                    (Fault.Crash s :: (if wipe then [ Fault.Wipe s ] else []))
          end
          else if Relax_sim.Rng.bool rng recover_p then
            actions := !actions @ emit shadow [ Fault.Recover s ]
        done;
        !actions @ enforce_min_up shadow ~min_up);
  }

let crash_recover ?crash_p ?recover_p ?min_up () =
  crash_churn ~nemesis_name:"crash" ~wipe:false ?crash_p ?recover_p ?min_up ()

let amnesia ?crash_p ?recover_p ?min_up () =
  crash_churn ~nemesis_name:"amnesia" ~wipe:true ?crash_p ?recover_p ?min_up ()

(* A site crashes and stays down for [down_ticks] rounds, then rejoins
   with its (stale but intact) log — the slow-rejoin regime where a
   recovered site serves quorums before anti-entropy catches it up. *)
let stale_rejoin ?(crash_p = 0.08) ?(down_ticks = 3) ?(min_up = 1) () =
  let down = Hashtbl.create 8 in
  {
    name = "rejoin";
    step =
      (fun rng shadow ->
        let n = Fault.Shadow.sites shadow in
        let actions = ref [] in
        for s = 0 to n - 1 do
          match Hashtbl.find_opt down s with
          | Some k when k <= 1 ->
            Hashtbl.remove down s;
            actions := !actions @ emit shadow [ Fault.Recover s ]
          | Some k -> Hashtbl.replace down s (k - 1)
          | None ->
            if
              Fault.Shadow.is_up shadow s
              && Fault.Shadow.up_count shadow > min_up
              && Relax_sim.Rng.bool rng crash_p
            then begin
              Hashtbl.replace down s down_ticks;
              actions := !actions @ emit shadow [ Fault.Crash s ]
            end
        done;
        !actions);
  }

(* Random bipartition and heal: when connected, with [split_p] split the
   sites into two non-empty cells; when split, heal with [heal_p]. *)
let split_brain ?(split_p = 0.12) ?(heal_p = 0.45) () =
  {
    name = "partition";
    step =
      (fun rng shadow ->
        if Fault.Shadow.partitioned shadow then
          if Relax_sim.Rng.bool rng heal_p then emit shadow [ Fault.Heal ]
          else []
        else if Relax_sim.Rng.bool rng split_p then begin
          let n = Fault.Shadow.sites shadow in
          let order = Array.init n Fun.id in
          Relax_sim.Rng.shuffle rng order;
          let cut = 1 + Relax_sim.Rng.int rng (max 1 (n - 1)) in
          let left = Array.to_list (Array.sub order 0 cut) in
          let right = Array.to_list (Array.sub order cut (n - cut)) in
          if right = [] then []
          else emit shadow [ Fault.Partition [ left; right ] ]
        end
        else []);
  }

(* Toggling network-knob windows: when off, switch on with [on_p]
   (setting the knob to [value]); when on, switch off with [off_p]
   (resetting to the given zero).  One closure per constructed nemesis,
   so build a fresh one per run. *)
let toggle ~nemesis_name ~on ~off ~on_p ~off_p () =
  let active = ref false in
  {
    name = nemesis_name;
    step =
      (fun rng shadow ->
        if !active then
          if Relax_sim.Rng.bool rng off_p then begin
            active := false;
            emit shadow [ off ]
          end
          else []
        else if Relax_sim.Rng.bool rng on_p then begin
          active := true;
          emit shadow [ on ]
        end
        else []);
  }

let message_drop ?(p = 0.25) ?(on_p = 0.25) ?(off_p = 0.5) () =
  toggle ~nemesis_name:"drop" ~on:(Fault.Drop p) ~off:(Fault.Drop 0.0) ~on_p
    ~off_p ()

let message_dup ?(p = 0.3) ?(on_p = 0.25) ?(off_p = 0.5) () =
  toggle ~nemesis_name:"dup" ~on:(Fault.Duplicate p) ~off:(Fault.Duplicate 0.0)
    ~on_p ~off_p ()

let message_delay ?(extra = 25.0) ?(on_p = 0.25) ?(off_p = 0.5) () =
  toggle ~nemesis_name:"delay" ~on:(Fault.Delay extra) ~off:(Fault.Delay 0.0)
    ~on_p ~off_p ()

(* Clock skew: with [p] per tick, toggle one random site between skewed
   (a fresh skew drawn in [0, max_skew)) and back to zero. *)
let clock_skew ?(max_skew = 12.0) ?(p = 0.2) () =
  let skewed = Hashtbl.create 8 in
  {
    name = "skew";
    step =
      (fun rng shadow ->
        if Relax_sim.Rng.bool rng p then begin
          let s = Relax_sim.Rng.int rng (Fault.Shadow.sites shadow) in
          if Hashtbl.mem skewed s then begin
            Hashtbl.remove skewed s;
            emit shadow [ Fault.Skew (s, 0.0) ]
          end
          else begin
            Hashtbl.replace skewed s ();
            emit shadow [ Fault.Skew (s, Relax_sim.Rng.float rng max_skew) ]
          end
        end
        else []);
  }

(* ------------------------------------------------------------------ *)
(* The named catalog                                                   *)
(* ------------------------------------------------------------------ *)

let known =
  [
    ("crash", "site crash/recover churn (logs survive)");
    ("partition", "random bipartition and heal");
    ("drop", "message-loss windows");
    ("delay", "latency-burst windows (reordering)");
    ("dup", "message-duplication windows");
    ("skew", "per-site sender clock skew");
    ("rejoin", "long crash, stale-log rejoin");
    ("amnesia", "crash with stable-storage loss (breaks the assumption)");
  ]

let of_string s =
  match s with
  | "crash" -> Ok (crash_recover ())
  | "partition" -> Ok (split_brain ())
  | "drop" -> Ok (message_drop ())
  | "delay" -> Ok (message_delay ())
  | "dup" -> Ok (message_dup ())
  | "skew" -> Ok (clock_skew ())
  | "rejoin" -> Ok (stale_rejoin ())
  | "amnesia" -> Ok (amnesia ())
  | other ->
    Error
      (Fmt.str "unknown nemesis %S (known: %s)" other
         (String.concat ", " (List.map fst known)))

let of_names names =
  List.fold_left
    (fun acc n ->
      match (acc, of_string n) with
      | Error e, _ -> Error e
      | Ok _, Error e -> Error e
      | Ok l, Ok nem -> Ok (l @ [ nem ]))
    (Ok []) names

(* ------------------------------------------------------------------ *)
(* Offline schedule generation                                         *)
(* ------------------------------------------------------------------ *)

(* Drive the nemeses over a tick grid against a fresh shadow.  Each
   nemesis draws from its own stream split off [rng] in list order, so
   adding a nemesis to the mix never perturbs the draws of the others. *)
let generate nemeses ~rng ~sites ~horizon ~tick =
  if tick <= 0.0 then invalid_arg "Nemesis.generate: tick must be positive";
  let shadow = Fault.Shadow.create ~sites in
  let streams =
    List.map (fun n -> (n, Relax_sim.Rng.split rng)) nemeses
  in
  let events = ref [] in
  let t = ref tick in
  while !t < horizon do
    List.iter
      (fun (n, r) ->
        List.iter
          (fun action -> events := { Fault.at = !t; action } :: !events)
          (n.step r shadow))
      streams;
    t := !t +. tick
  done;
  List.rev !events
