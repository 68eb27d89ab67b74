open Relax_core

(* Quorum consensus automata (Section 3.2).

   Given a specification of a simple object automaton A (its pre- and
   postconditions and an evaluation of histories to states) and a quorum
   intersection relation Q, QCA(A,Q) accepts H . p whenever some Q-view G
   of H for p admits states s ∈ eval(G) and s' ∈ eval(G . p) with
   p.pre(s) and p.post(s, s').  The automaton's own state is the history
   accepted so far.

   With eval = delta*, this is the paper's QCA(A,Q); substituting an
   evaluation function eta (total on all sequences) gives QCA(A,Q,eta). *)

type 'v spec = {
  spec_name : string;
  eval : History.t -> 'v list;
  (* When the evaluation is incremental — eval (G . p) = extend (eval G) p
     — the spec supports the views-abstracted automaton below. *)
  extend : ('v list -> Op.t -> 'v list) option;
  pre : 'v -> Op.invocation -> bool;
  post : 'v -> Op.t -> 'v -> bool;
  equal : 'v -> 'v -> bool;
  hash : ('v -> int) option;
}

let make_spec ?hash ?extend ~name ~eval ~pre ~post ~equal () =
  { spec_name = name; eval; extend; pre; post; equal; hash }

(* The specification induced by an automaton: eval is delta* (incremental
   by definition), and the pre/post conjunction is exactly the transition
   relation. *)
let spec_of_automaton (a : 'v Automaton.t) =
  {
    spec_name = Automaton.name a;
    eval = Automaton.run a;
    extend = Some (fun states p -> Automaton.step_set a states p);
    pre = (fun _ _ -> true);
    post =
      (fun s p s' ->
        List.exists (Automaton.equal_state a s') (Automaton.step a s p));
    equal = Automaton.equal_state a;
    hash = Automaton.hash_state a;
  }

(* The specification of an automaton A with its delta* replaced by an
   evaluation function eta total on arbitrary sequences, given as a left
   fold so it extends incrementally. *)
let spec_with_eta ?hash ~init ~step ~pre ~post ~equal ~name () =
  {
    spec_name = name;
    eval = (fun h -> [ List.fold_left step init h ]);
    extend = Some (fun vs p -> List.map (fun v -> step v p) vs);
    pre;
    post;
    equal;
    hash;
  }

(* The memoizing QCA automaton.

   Read literally, the definition regenerates and re-filters all 2^|H|
   subsets of H on every step (the Q-views of [View.views]; the test
   suite keeps that reading as its reference).  The automaton below
   instead maintains, per accepted history, the list of its Q-closed
   position sets, extended incrementally: a subset of [H . p] is
   Q-closed iff it is a Q-closed subset of [H], or it is [G ∪ {|H|}] for
   a Q-closed [G] of [H] that contains every earlier position related to
   [inv(p)].  The Q-views of [H] for [i] are then exactly the Q-closed
   sets containing [i]'s required positions (a closed superset of the
   required positions always contains their Q-closure).  Evaluations of
   view histories — shared massively between steps and between inclusion
   directions — are memoized by history.

   The caches are private to the returned automaton value, so the value
   must not be shared across domains; every checker in this repository
   constructs its automata inside the task that uses them. *)

(* [is_sub_sorted a b]: a ⊆ b for sorted int lists. *)
let rec is_sub_sorted a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
    if x = y then is_sub_sorted a' b'
    else if x > y then is_sub_sorted a b'
    else false

let automaton ?name spec rel : History.t Automaton.t =
  let name =
    match name with
    | Some n -> n
    | None -> Fmt.str "QCA(%s,%s)" spec.spec_name (Relation.name rel)
  in
  (* history -> its Q-closed position sets (each sorted ascending) *)
  let closed_cache : int list list History.Tbl.t = History.Tbl.create 64 in
  History.Tbl.replace closed_cache History.empty [ [] ];
  (* view history -> spec.eval *)
  let eval_cache = History.Tbl.create 1024 in
  let eval g =
    match History.Tbl.find_opt eval_cache g with
    | Some v -> v
    | None ->
      let v = spec.eval g in
      History.Tbl.replace eval_cache g v;
      v
  in
  let extend_closed prefix p =
    let arr = Array.of_list (History.to_list prefix) in
    let req = View.required_positions rel arr (Op.invocation p) in
    let n = Array.length arr in
    let cs = History.Tbl.find closed_cache prefix in
    cs
    @ List.filter_map
        (fun g -> if is_sub_sorted req g then Some (g @ [ n ]) else None)
        cs
  in
  (* Closed sets of [h], rebuilding prefix by prefix on a cache miss (the
     miss only happens when a state is replayed cold, e.g. by
     [Automaton.run] on a stored history). *)
  let rec closed_sets h =
    match History.Tbl.find_opt closed_cache h with
    | Some cs -> cs
    | None ->
      let ops = History.to_list h in
      let prefix = History.of_list (List.filteri (fun j _ -> j < List.length ops - 1) ops) in
      ignore (closed_sets prefix);
      let cs = extend_closed prefix (List.nth ops (List.length ops - 1)) in
      History.Tbl.replace closed_cache h cs;
      cs
  in
  let accepts h p =
    let i = Op.invocation p in
    let arr = Array.of_list (History.to_list h) in
    let req = View.required_positions rel arr i in
    closed_sets h
    |> List.exists (fun g ->
           is_sub_sorted req g
           &&
           let view = History.of_list (List.map (fun pos -> arr.(pos)) g) in
           let before = eval view and after = eval (History.append view p) in
           List.exists
             (fun s ->
               spec.pre s i && List.exists (fun s' -> spec.post s p s') after)
             before)
  in
  Automaton.make ~name ~init:History.empty ~equal:History.equal
    ~hash:History.hash ~pp_state:History.pp (fun h p ->
      if accepts h p then begin
        let h' = History.append h p in
        if not (History.Tbl.mem closed_cache h') then
          History.Tbl.replace closed_cache h' (extend_closed h p);
        [ h' ]
      end
      else [])

(* The views-abstracted QCA automaton.

   The history-state automaton above still iterates every Q-closed subset
   of its history on each step — exponential in the depth bound for
   sparse relations, because almost every subset is Q-closed.  But
   acceptance of the next operation only ever consults the *evaluations*
   of views, never the views themselves, so for specs with an incremental
   evaluation (eval (G . p) = extend (eval G) p — every eta in this
   repository is a left fold, and delta* is one by definition) the
   automaton can forget the history entirely.

   Its state maps each subset S of the alphabet's invocation classes to

     W(H, S) = { eval G | G Q-closed in H, G ⊇ ∪_{i∈S} required_i(H) }

   — the distinct evaluations of the closed sets containing every
   position S's invocations are required to observe.  The two facts that
   make this a state:

   - acceptance of p with invocation i needs exactly W(H, {i}) (a closed
     superset of i's required positions is precisely a Q-view for i, and
     before/after states are eval G and extend (eval G) p);
   - W steps without the history: the Q-closed sets of H . p are the
     Q-closed sets of H plus the sets G ∪ {|H|} for Q-closed G ⊇
     required_{inv p}(H), so

       W(H.p, S) = extend_p W(H, S ∪ {inv p})            if some i ∈ S
                                                          relates to p
                 | W(H, S) ∪ extend_p W(H, S ∪ {inv p})  otherwise.

   Distinct histories with equal maps accept the same futures, so states
   collapse to the order of the underlying object's state count and the
   memoized pair checker in [Language] gets quotient-automaton leverage
   instead of replaying every accepted history.

   The automaton hash-conses that quotient at three levels, each value
   named by a dense id: an evaluation (a state list, compared as a set),
   an entry (a sorted, duplicate-free list of evaluation ids — one W(H,
   S)), and a map (an array of entry ids, one per invocation mask).  The
   map's id is the state, so state equality and hashing are integer
   work.  Each evaluation and each entry is extended by, and tested
   against, an operation once; each pair of entries is united once; and
   each state is stepped by an operation once, so every later
   exploration of the same automaton value (the other direction of an
   equivalence, the language census) replays table lookups.  Ids are
   handed out in the order explorations first reach their values, so
   they mean nothing outside the automaton value that assigned them, and
   no checker result depends on them.  As for the history-state
   automaton, the tables are private to the returned value, which must
   not be shared across domains.

   The invocation universe must cover every operation the automaton will
   ever be stepped with; stepping outside it raises. *)

type 'v views_state = int

(* An evaluation or an entry stepped by one operation: the id of its
   extension, and whether the operation's pre- and postconditions hold
   from it (from some evaluation of it, for an entry). *)
type moved = { after : int; accepts : bool }

(* Everything the views automaton memoizes about one operation. *)
type op_memo = {
  bit : int;  (* the mask of the operation's invocation class *)
  relates : int;  (* the mask of the classes related to the operation *)
  evals : (int, moved) Hashtbl.t;  (* evaluation id -> its move *)
  entries : (int, moved) Hashtbl.t;  (* entry id -> its move *)
  next : (int, int list) Hashtbl.t;  (* state id -> its successors *)
}

module Op_tbl = Hashtbl.Make (struct
  type t = Op.t

  let equal = Op.equal
  let hash = Op.hash
end)

(* Dense ids for the values [hash] and [equal] tell apart, and the
   representative value of each id. *)
let interner hash equal =
  let t = Language.Intern.create hash equal in
  (Language.Intern.id t, Language.Intern.value t)

(* [memo tbl key f] is [f ()], computed once per [key]. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

let automaton_views ?name ~(alphabet : Op.t list) spec rel :
    'v views_state Automaton.t =
  let extend =
    match spec.extend with
    | Some f -> f
    | None ->
      invalid_arg "Qca.automaton_views: specification has no incremental eval"
  in
  let invs =
    List.fold_left
      (fun acc p ->
        let i = Op.invocation p in
        if List.exists (Op.equal_invocation i) acc then acc else acc @ [ i ])
      [] alphabet
    |> Array.of_list
  in
  let k = Array.length invs in
  if k > 20 then invalid_arg "Qca.automaton_views: too many invocation classes";
  let size = 1 lsl k in
  let inv_index i =
    let rec go j =
      if j = k then
        invalid_arg
          (Fmt.str "Qca.automaton_views: operation outside the alphabet (%a)"
             Op.pp_invocation i)
      else if Op.equal_invocation invs.(j) i then j
      else go (j + 1)
    in
    go 0
  in
  (* Evaluations are compared as sets — delta* may list the states of a
     view in any order — so they are interned without duplicates, under
     a hash that ignores order; a spec without a hash interns into one
     bucket. *)
  let eval_id, eval_of =
    interner
      (match spec.hash with
      | None -> fun _ -> 0
      | Some h -> List.fold_left (fun acc v -> acc + (h v land max_int)) 0)
      (fun va vb ->
        List.compare_lengths va vb = 0
        && List.for_all (fun a -> List.exists (spec.equal a) vb) va)
  in
  let eval_id vs =
    eval_id
      (List.fold_left
         (fun acc v -> if List.exists (spec.equal v) acc then acc else v :: acc)
         [] vs)
  in
  let entry_id, entry_of =
    interner
      (List.fold_left (fun h e -> (h * 31) + e) 17)
      (List.equal Int.equal)
  in
  let entry_id es = entry_id (List.sort_uniq Int.compare es) in
  let map_id, map_of =
    interner
      (Array.fold_left (fun h x -> (h * 131) + x) 7)
      (Array.for_all2 Int.equal)
  in
  let memos = Op_tbl.create 16 in
  let memo_of p =
    match Op_tbl.find_opt memos p with
    | Some m -> m
    | None ->
      let relates = ref 0 in
      Array.iteri
        (fun j i ->
          if Relation.related rel i p then relates := !relates lor (1 lsl j))
        invs;
      let m =
        {
          bit = 1 lsl inv_index (Op.invocation p);
          relates = !relates;
          evals = Hashtbl.create 64;
          entries = Hashtbl.create 64;
          next = Hashtbl.create 256;
        }
      in
      Op_tbl.add memos p m;
      m
  in
  let move_eval m p e =
    memo m.evals e (fun () ->
        let i = Op.invocation p in
        let before = eval_of e in
        let after = extend before p in
        {
          after = eval_id after;
          accepts =
            List.exists
              (fun s ->
                spec.pre s i && List.exists (fun s' -> spec.post s p s') after)
              before;
        })
  in
  let move_entry m p x =
    memo m.entries x (fun () ->
        let moves = List.map (move_eval m p) (entry_of x) in
        {
          after = entry_id (List.map (fun mv -> mv.after) moves);
          accepts = List.exists (fun mv -> mv.accepts) moves;
        })
  in
  let unions = Hashtbl.create 256 in
  let union x y =
    memo unions (x, y) (fun () -> entry_id (entry_of x @ entry_of y))
  in
  let name =
    match name with
    | Some n -> n
    | None -> Fmt.str "QCA(%s,%s)" spec.spec_name (Relation.name rel)
  in
  let init =
    map_id (Array.make size (entry_id [ eval_id (spec.eval History.empty) ]))
  in
  let step w p =
    let m = memo_of p in
    memo m.next w (fun () ->
        let entries = map_of w in
        if not (move_entry m p entries.(m.bit)).accepts then []
        else
          [
            map_id
              (Array.init size (fun mask ->
                   let extended =
                     (move_entry m p entries.(mask lor m.bit)).after
                   in
                   if mask land m.relates <> 0 then extended
                   else union entries.(mask) extended));
          ])
  in
  Automaton.make ~name ~init ~equal:Int.equal ~hash:Fun.id step
