open Relax_core

(* Forward-simulation synthesis and certification.

   Both phases work on the determinized product: a candidate relation R
   relates reachable A-state-sets to B-state-sets (the subset
   construction's states), interned through the memoized state
   abstraction of {!Relax_core.Language.Intern}.  R is a forward
   simulation when

     init      ([init a], [init b]) ∈ R
     output    for every (SA, SB) ∈ R and p: if A steps (SA' ≠ ∅)
               then B steps too (SB' ≠ ∅ — the alphabet's symbols are
               invocation/response pairs, so B matching the step is
               exactly B matching the output)
     step      the successor pair (SA', SB') is again in R

   which proves L(a) ⊆ L(b) for every history of any length (the
   automata here are envelope-restricted, see {!Envelope}, so the
   saturation terminates and the proof covers the whole envelope).

   [synthesize] computes the least such R by breadth-first saturation
   and fails fast on a refutation or on budget exhaustion;
   [certify] independently re-discharges every obligation of a stored
   candidate — it never trusts the synthesis — and additionally audits
   matched deterministic states through the larch rewriting engine when
   the caller supplies a reified-equality oracle.  The audit can only
   reject: a planted wrong candidate must fail certification and push
   the pipeline back to bounded enumeration. *)

type reason = Refuted | Budget_exhausted | Unhashed

let reason_to_string = function
  | Refuted -> "refuted within the envelope"
  | Budget_exhausted -> "synthesis budget exhausted"
  | Unhashed -> "state spaces not hashed"

type ('va, 'vb) candidate = {
  a : 'va Automaton.t;
  b : 'vb Automaton.t;
  alphabet : Op.t list;
  pairs : ('va list * 'vb list) list;  (* candidate relation, BFS order *)
}

type failure =
  | Init_absent
  | Output_unmatched of Op.t
  | Not_closed of Op.t
  | Audit_refuted

let failure_to_string = function
  | Init_absent -> "initial pair missing from the relation"
  | Output_unmatched p ->
    Fmt.str "no matching B-step for %a" Op.pp p
  | Not_closed p ->
    Fmt.str "successor pair under %a escapes the relation" Op.pp p
  | Audit_refuted -> "matched states differ modulo the theory (larch audit)"

type cert = { relation : int; obligations : int }

let default_max_pairs = 50_000

(* A memoizing stepper over an interned automaton.  States are interned
   to dense ids on first sight (the intern table maps ids back to
   states), every distinct state is stepped at most once per operation,
   and every distinct (state-set, operation) edge merges the per-state
   successor ids once; after that, stepping is pure integer work — no
   state hashing, no transition recomputation.  The same stepper is shared
   between synthesis, certification and both directions of an
   equivalence; the obligations are still discharged against the
   automaton's own transition function, evaluated once per distinct
   state and operation. *)
module Stepper = struct
  type 'v t = {
    a : 'v Automaton.t;
    intern : 'v Language.Intern.t option;
    scache : (int * Op.t, int list) Hashtbl.t; (* per-state successors *)
    cache : (int list * Op.t, 'v list * int list) Hashtbl.t; (* per-set *)
  }

  let create a =
    {
      a;
      intern =
        Option.map
          (fun h -> Language.Intern.create h (Automaton.equal_state a))
          (Automaton.hash_state a);
      scache = Hashtbl.create 1024;
      cache = Hashtbl.create 1024;
    }

  let hashed t = t.intern <> None

  let reg t st = Language.Intern.id (Option.get t.intern) st
  let state t id = Language.Intern.value (Option.get t.intern) id

  (* The canonical key of a state set: its sorted, deduplicated ids —
     {!Language.Intern.key}, from which the set can be rebuilt. *)
  let key t s = Language.Intern.key (Option.get t.intern) s

  (* Successors of the state set canonicalized by [k], with their key.
     Ids determine the set, so only the key is consulted; a candidate
     pair is therefore stepped identically however its member lists are
     ordered. *)
  let step_keyed t k p =
    match Hashtbl.find_opt t.cache (k, p) with
    | Some r -> r
    | None ->
      let succ_ids =
        List.fold_left
          (fun acc sid ->
            let ids =
              match Hashtbl.find_opt t.scache (sid, p) with
              | Some ids -> ids
              | None ->
                let st = state t sid in
                let ids = List.map (reg t) (Automaton.step t.a st p) in
                Hashtbl.add t.scache (sid, p) ids;
                ids
            in
            List.rev_append ids acc)
          [] k
      in
      let k' = List.sort_uniq Int.compare succ_ids in
      let r = (List.map (state t) k', k') in
      Hashtbl.add t.cache (k, p) r;
      r
end

let synthesize ?(max_pairs = default_max_pairs) ?stepper_a ?stepper_b
    (a : 'va Automaton.t) (b : 'vb Automaton.t) ~alphabet =
  let sa_t = match stepper_a with Some s -> s | None -> Stepper.create a in
  let sb_t = match stepper_b with Some s -> s | None -> Stepper.create b in
  if not (Stepper.hashed sa_t && Stepper.hashed sb_t) then Error Unhashed
  else begin
    let stats = Language.Stats.cell () in
    let seen : (int list * int list, unit) Hashtbl.t = Hashtbl.create 256 in
    let acc = ref [] in
    let count = ref 0 in
    let exception Stop of reason in
    (* frontier entries carry the interned keys alongside the concrete
       sets, so a revisited pair costs one table lookup and no hashing *)
    let visit (sa, ka) (sb, kb) =
      if Hashtbl.mem seen (ka, kb) then begin
        stats.Language.Stats.memo_hits <- stats.Language.Stats.memo_hits + 1;
        false
      end
      else begin
        incr count;
        if !count > max_pairs then raise (Stop Budget_exhausted);
        Hashtbl.add seen (ka, kb) ();
        stats.Language.Stats.visited <- stats.Language.Stats.visited + 1;
        acc := (sa, sb) :: !acc;
        true
      end
    in
    try
      let q = Queue.create () in
      let ia = ([ Automaton.init a ], Stepper.key sa_t [ Automaton.init a ]) in
      let ib = ([ Automaton.init b ], Stepper.key sb_t [ Automaton.init b ]) in
      ignore (visit ia ib : bool);
      Queue.add (ia, ib) q;
      while not (Queue.is_empty q) do
        let (_, ka), (_, kb) = Queue.pop q in
        List.iter
          (fun p ->
            match Stepper.step_keyed sa_t ka p with
            | [], _ -> ()
            | a' -> (
              match Stepper.step_keyed sb_t kb p with
              | [], _ -> raise (Stop Refuted)
              | b' -> if visit a' b' then Queue.add (a', b') q))
          alphabet
      done;
      Ok { a; b; alphabet; pairs = List.rev !acc }
    with Stop r -> Error r
  end

let certify ?audit ?stepper_a ?stepper_b (c : ('va, 'vb) candidate) =
  let sa_t = match stepper_a with Some s -> s | None -> Stepper.create c.a in
  let sb_t = match stepper_b with Some s -> s | None -> Stepper.create c.b in
  if not (Stepper.hashed sa_t && Stepper.hashed sb_t) then Error Init_absent
  else begin
    (* the keys are recomputed here, never taken from the synthesis —
       certification does not trust how the candidate was produced *)
    let keyed =
      List.map
        (fun (sa, sb) -> ((sa, Stepper.key sa_t sa), (sb, Stepper.key sb_t sb)))
        c.pairs
    in
    let relation : (int list * int list, unit) Hashtbl.t =
      Hashtbl.create 256
    in
    List.iter
      (fun ((_, ka), (_, kb)) -> Hashtbl.replace relation (ka, kb) ())
      keyed;
    let obligations = ref 0 in
    let exception Failed of failure in
    (try
       (* init *)
       incr obligations;
       if
         not
           (Hashtbl.mem relation
              ( Stepper.key sa_t [ Automaton.init c.a ],
                Stepper.key sb_t [ Automaton.init c.b ] ))
       then raise (Failed Init_absent);
       (* larch audit sweep: matched deterministic states must agree
          modulo the theory before any ground closure check runs *)
       (match audit with
       | None -> ()
       | Some decide ->
         List.iter
           (fun (sa, sb) ->
             match (sa, sb) with
             | [ x ], [ y ] -> (
               incr obligations;
               match decide x y with
               | `Unequal -> raise (Failed Audit_refuted)
               | `Equal | `Unknown -> ())
             | _ -> ())
           c.pairs);
       (* output-matching and step closure *)
       List.iter
         (fun ((_, ka), (_, kb)) ->
           List.iter
             (fun p ->
               incr obligations;
               match Stepper.step_keyed sa_t ka p with
               | [], _ -> ()
               | _, ka' -> (
                 match Stepper.step_keyed sb_t kb p with
                 | [], _ -> raise (Failed (Output_unmatched p))
                 | _, kb' ->
                   if not (Hashtbl.mem relation (ka', kb')) then
                     raise (Failed (Not_closed p))))
             c.alphabet)
         keyed;
       let cert = { relation = List.length c.pairs; obligations = !obligations } in
       let stats = Language.Stats.cell () in
       stats.Language.Stats.obligations <-
         stats.Language.Stats.obligations + cert.obligations;
       stats.Language.Stats.relation <-
         stats.Language.Stats.relation + cert.relation;
       Ok cert
     with Failed f -> Error f)
  end
