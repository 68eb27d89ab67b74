(* Bounded exploration of automaton languages.

   The languages in the paper (L(A), Section 2.1) are prefix-closed sets of
   histories over an operation alphabet.  All the paper's claims —
   inclusions between lattice points, Theorem 4, the Semiqueue_1 = FIFO
   collapses — reduce to one question, L(A) ⊆ L(B) up to a depth bound
   over a finite alphabet, decided here by a breadth-first search of the
   product of the determinized automata that reports the first
   counterexample history on failure. *)

type alphabet = Op.t list

(* Domain-local checker counters, surfaced per claim by the claim
   engine.  Each counter cell belongs to the domain that runs the check
   (nested pool calls degrade to sequential, so a check's whole
   exploration stays on one domain); incrementing is branch-free and
   does not perturb any result.  [reset] before a check, [read] after. *)
module Stats = struct
  type t = {
    mutable histories : int;
    mutable visited : int;
    mutable memo_hits : int;
    mutable obligations : int;
    mutable relation : int;
    mutable synthesized : int;
    mutable fallbacks : int;
  }

  let key =
    Domain.DLS.new_key (fun () ->
        {
          histories = 0;
          visited = 0;
          memo_hits = 0;
          obligations = 0;
          relation = 0;
          synthesized = 0;
          fallbacks = 0;
        })

  let cell () = Domain.DLS.get key

  let reset () =
    let c = cell () in
    c.histories <- 0;
    c.visited <- 0;
    c.memo_hits <- 0;
    c.obligations <- 0;
    c.relation <- 0;
    c.synthesized <- 0;
    c.fallbacks <- 0

  let read () =
    let c = cell () in
    {
      histories = c.histories;
      visited = c.visited;
      memo_hits = c.memo_hits;
      obligations = c.obligations;
      relation = c.relation;
      synthesized = c.synthesized;
      fallbacks = c.fallbacks;
    }
end

type 'v frontier = { history : History.t; states : 'v list }

(* All accepted histories of length <= depth, shortest first.  Prefix
   closure of the languages involved means we only ever extend accepted
   prefixes, which prunes the |alphabet|^depth search tree to the size of
   the language itself. *)
let enumerate (a : 'v Automaton.t) ~(alphabet : alphabet) ~depth =
  let stats = Stats.cell () in
  let rec go level acc remaining =
    if remaining = 0 then List.rev acc
    else
      let extend f =
        List.filter_map
          (fun p ->
            match Automaton.step_set a f.states p with
            | [] -> None
            | states -> Some { history = History.append f.history p; states })
          alphabet
      in
      let next = List.concat_map extend level in
      stats.Stats.histories <- stats.Stats.histories + List.length next;
      let acc = List.fold_left (fun acc f -> f.history :: acc) acc next in
      if next = [] then List.rev acc else go next acc (remaining - 1)
  in
  let root = { history = History.empty; states = [ Automaton.init a ] } in
  stats.Stats.histories <- stats.Stats.histories + 1;
  go [ root ] [ History.empty ] depth

(* Interning of states by (hash, equal), assigning dense integer ids so a
   deduplicated state set canonicalizes to a sorted id list.  A collision
   falls back to [equal] within its bucket, so an imperfect hash costs
   time, never correctness. *)
module Intern = struct
  type 'v t = {
    hash : 'v -> int;
    equal : 'v -> 'v -> bool;
    buckets : (int, ('v * int) list) Hashtbl.t;
    mutable values : 'v array; (* id -> value; grows by doubling *)
    mutable next : int;
  }

  let create hash equal =
    { hash; equal; buckets = Hashtbl.create 256; values = [||]; next = 0 }

  let id t s =
    let h = t.hash s in
    let bucket = try Hashtbl.find t.buckets h with Not_found -> [] in
    match List.find_opt (fun (s', _) -> t.equal s s') bucket with
    | Some (_, id) -> id
    | None ->
      let id = t.next in
      if id = Array.length t.values then begin
        (* the new value fills the fresh cells: no dummy element needed *)
        let values = Array.make (max 16 (2 * id)) s in
        Array.blit t.values 0 values 0 id;
        t.values <- values
      end;
      t.values.(id) <- s;
      t.next <- id + 1;
      Hashtbl.replace t.buckets h ((s, id) :: bucket);
      id

  let value t id =
    if id < 0 || id >= t.next then invalid_arg "Language.Intern.value";
    t.values.(id)

  let key t states = List.sort_uniq Int.compare (List.map (id t) states)
end

(* The intern table of an automaton's states.  An automaton without a
   state hash gets a constant one: every state lands in one bucket and is
   told apart by [equal] alone, so the checkers below run one algorithm
   for every automaton, unhashed ones merely slower. *)
let intern_states a =
  Intern.create
    (Option.value (Automaton.hash_state a) ~default:(fun _ -> 0))
    (Automaton.equal_state a)

(* [size] agrees with [List.length (enumerate ...)] but counts by dynamic
   programming over (state-set, remaining depth) instead of materializing
   one node per history: many histories re-converge to the same
   determinized state set, so the table is far smaller than the language. *)
let size a ~alphabet ~depth =
  let stats = Stats.cell () in
  let intern = intern_states a in
  let steps : (int list * Op.t, 'v list * int list) Hashtbl.t =
    Hashtbl.create 256
  in
  let memo : (int list * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* nodes of the accepted-prefix tree rooted at [states], counting the
     root itself, cut off [remaining] levels down *)
  let rec count states key remaining =
    if remaining = 0 then 1
    else
      match Hashtbl.find_opt memo (key, remaining) with
      | Some n -> n
      | None ->
        let n =
          List.fold_left
            (fun acc p ->
              let succ, key' =
                match Hashtbl.find_opt steps (key, p) with
                | Some r -> r
                | None ->
                  let succ = Automaton.step_set a states p in
                  let r = (succ, Intern.key intern succ) in
                  Hashtbl.add steps (key, p) r;
                  r
              in
              match succ with
              | [] -> acc
              | _ -> acc + count succ key' (remaining - 1))
            1 alphabet
        in
        Hashtbl.add memo (key, remaining) n;
        n
  in
  let init = [ Automaton.init a ] in
  let n = count init (Intern.key intern init) depth in
  stats.Stats.histories <- stats.Stats.histories + n;
  n

(* Per-depth census of the language: element [i] is the number of accepted
   histories of length exactly [i]. *)
let census a ~alphabet ~depth =
  let counts = Array.make (depth + 1) 0 in
  List.iter
    (fun h -> counts.(History.length h) <- counts.(History.length h) + 1)
    (enumerate a ~alphabet ~depth);
  Array.to_list counts

type counterexample = { history : History.t; holds_in : string; fails_in : string }

let pp_counterexample ppf c =
  Fmt.pf ppf "%a accepted by %s but rejected by %s" History.pp c.history
    c.holds_in c.fails_in

(* L(a) ⊆ L(b) up to [depth]: a breadth-first search over the reachable
   (A-state-set, B-state-set) pairs of the product of the determinized
   automata.  Many histories reach the same state-set pair, so the
   frontier collapses to the number of distinct pairs — for the
   queue-family automata this turns the exponential history count into
   the (small) reachable product.

   Soundness of the dedup: pairs are explored level by level, so a pair is
   first visited with the largest remaining budget; later arrivals at the
   same pair can only reach a subset of what the first visit explores.

   The witness: each frontier entry carries the first history to reach
   its pair (reversed, so a visit costs one cons).  Levels are expanded in
   frontier order and each entry in alphabet order, which is the order
   enumerating every accepted history of [a] would visit them in, and a
   pair's first history is the first one in that order.  Whether an
   extension fails depends on the pair alone, so the first extension [a]
   accepts and [b] rejects is the shortest failing history, first in
   enumeration order. *)
let included (a : 'v Automaton.t) (b : 'w Automaton.t) ~alphabet ~depth =
  let stats = Stats.cell () in
  let ia = intern_states a and ib = intern_states b in
  let visited : (int list * int list, unit) Hashtbl.t = Hashtbl.create 256 in
  let exception Failed of Op.t list in
  try
    let rec go level remaining =
      if remaining = 0 then ()
      else
        let extend (rev, astates, bstates) =
          List.filter_map
            (fun p ->
              match Automaton.step_set a astates p with
              | [] -> None
              | astates' -> (
                let rev = p :: rev in
                match Automaton.step_set b bstates p with
                | [] -> raise (Failed rev)
                | bstates' ->
                  let key = (Intern.key ia astates', Intern.key ib bstates') in
                  if Hashtbl.mem visited key then begin
                    stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
                    None
                  end
                  else begin
                    Hashtbl.add visited key ();
                    stats.Stats.visited <- stats.Stats.visited + 1;
                    Some (rev, astates', bstates')
                  end))
            alphabet
        in
        match List.concat_map extend level with
        | [] -> ()
        | next -> go next (remaining - 1)
    in
    stats.Stats.visited <- stats.Stats.visited + 1;
    go [ ([], [ Automaton.init a ], [ Automaton.init b ]) ] depth;
    Ok ()
  with Failed rev ->
    Error
      {
        history = History.of_list (List.rev rev);
        holds_in = Automaton.name a;
        fails_in = Automaton.name b;
      }

let equivalent a b ~alphabet ~depth =
  match included a b ~alphabet ~depth with
  | Error c -> Error c
  | Ok () -> included b a ~alphabet ~depth

(* Strict inclusion: a `subseteq` b and some history of b is rejected by a.
   Returns a witness of strictness on success. *)
let strictly_included a b ~alphabet ~depth =
  match included a b ~alphabet ~depth with
  | Error c -> Error c
  | Ok () -> (
    match included b a ~alphabet ~depth with
    | Error witness -> Ok (Some witness.history)
    | Ok () -> Ok None)

let included_bool a b ~alphabet ~depth =
  match included a b ~alphabet ~depth with Ok () -> true | Error _ -> false

let equivalent_bool a b ~alphabet ~depth =
  match equivalent a b ~alphabet ~depth with Ok () -> true | Error _ -> false

(* Full classification of two specifications by their bounded languages —
   the comparison of specifications the paper's Section 5 envisions for
   lattices of theories.  Witnesses are histories separating the
   languages. *)
type classification =
  | Equal
  | Left_below_right of History.t (* L(a) ⊂ L(b); witness in b \ a *)
  | Right_below_left of History.t (* L(b) ⊂ L(a); witness in a \ b *)
  | Incomparable of History.t * History.t
    (* (in a \ b, in b \ a) *)

let pp_classification ppf = function
  | Equal -> Fmt.string ppf "equal languages"
  | Left_below_right w ->
    Fmt.pf ppf "strictly below (missing e.g. %a)" History.pp w
  | Right_below_left w ->
    Fmt.pf ppf "strictly above (additionally accepts e.g. %a)" History.pp w
  | Incomparable (wa, wb) ->
    Fmt.pf ppf "incomparable (only left: %a; only right: %a)" History.pp wa
      History.pp wb

let classify a b ~alphabet ~depth =
  match (included a b ~alphabet ~depth, included b a ~alphabet ~depth) with
  | Ok (), Ok () -> Equal
  | Ok (), Error c -> Left_below_right c.history
  | Error c, Ok () -> Right_below_left c.history
  | Error ca, Error cb -> Incomparable (ca.history, cb.history)
