(* Relaxation lattices (Section 2.2).

   A relaxation lattice is a set of constraints C, a lattice of automata A
   (same states, initial state and operations, different transition
   functions), and a lattice homomorphism phi : 2^C -> A, oriented so that
   the strongest constraint set maps to the smallest ("preferred")
   language.  phi may be defined only over a sublattice of 2^C (the bank
   account relaxes A1 but never A2; the semiqueue lattice excludes the
   empty constraint set). *)

type 'v t = {
  name : string;
  constraints : string list;
  in_domain : Cset.t -> bool;
  phi : Cset.t -> 'v Automaton.t;
}

let make ?(in_domain = fun _ -> true) ~name ~constraints phi =
  let constraints = List.sort_uniq String.compare constraints in
  (* phi is called repeatedly on the same constraint sets by the
     monotonicity check and the behavior grouping; caching its results
     lets memoizing automata (QCA) keep their step caches warm across
     checks. *)
  let cache = Hashtbl.create 8 in
  let phi c =
    let key = Cset.to_string c in
    match Hashtbl.find_opt cache key with
    | Some a -> a
    | None ->
      let a = phi c in
      Hashtbl.add cache key a;
      a
  in
  { name; constraints; in_domain; phi }

let name t = t.name
let constraints t = t.constraints

let domain t = List.filter t.in_domain (Cset.subsets t.constraints)

let phi t c =
  if not (t.in_domain c) then
    invalid_arg
      (Fmt.str "Relaxation.phi: %a outside the domain of lattice %s" Cset.pp c
         t.name);
  t.phi c

(* The behavior at the top of the lattice: phi applied to the strongest
   constraint set in the domain (the full vocabulary when the domain is all
   of 2^C). *)
let preferred t =
  let top =
    List.fold_left
      (fun best c -> if Cset.cardinal c > Cset.cardinal best then c else best)
      Cset.empty (domain t)
  in
  t.phi top

type violation = {
  weaker : Cset.t;
  stronger : Cset.t;
  counterexample : Language.counterexample;
}

let pp_violation ppf v =
  Fmt.pf ppf "monotonicity %a <= %a violated: %a" Cset.pp v.weaker Cset.pp
    v.stronger Language.pp_counterexample v.counterexample

(* The defining property of a relaxation lattice: a stronger constraint set
   accepts fewer histories.  For every comparable pair C1 `subset` C2 in the
   domain we check L(phi(C2)) `subseteq` L(phi(C1)) up to the bound. *)
let check_monotone t ~alphabet ~depth =
  let dom = domain t in
  let pairs =
    List.concat_map
      (fun c1 ->
        List.filter_map
          (fun c2 ->
            if Cset.strict_subset c1 c2 then Some (c1, c2) else None)
          dom)
      dom
  in
  List.filter_map
    (fun (weaker, stronger) ->
      match
        Language.included (t.phi stronger) (t.phi weaker) ~alphabet ~depth
      with
      | Ok () -> None
      | Error counterexample -> Some { weaker; stronger; counterexample })
    pairs

(* Groups domain points whose behaviors coincide up to the bound — this is
   exactly the shape of the paper's Figure 4-2, which maps the seven
   nonempty constraint sets of a three-item semiqueue onto three
   behaviors.  Each class is compared through its first member, in domain
   order. *)
let behavior_classes t ~alphabet ~depth =
  let rec group = function
    | [] -> []
    | c :: rest ->
      let a = t.phi c in
      let same, different =
        List.partition
          (fun c' -> Language.equivalent_bool a (t.phi c') ~alphabet ~depth)
          rest
      in
      (c :: same, Automaton.name a) :: group different
  in
  group (domain t)
