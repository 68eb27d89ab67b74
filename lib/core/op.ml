(* An operation execution [op(args)/term(res)] in the sense of Section 2
   of the paper: the operation name and argument values form the
   invocation, the termination condition and result values the response. *)

type t = {
  name : string;
  args : Value.t list;
  term : string;
  results : Value.t list;
}

let ok = "Ok"

let make ?(term = ok) ?(args = []) ?(results = []) name =
  { name; args; term; results }

let name t = t.name
let args t = t.args
let term t = t.term
let results t = t.results

(* The invocation part of an execution: what a caller supplies. *)
type invocation = { inv_name : string; inv_args : Value.t list }

let invocation t = { inv_name = t.name; inv_args = t.args }
let invocation_name i = i.inv_name
let invocation_args i = i.inv_args
let inv ?(args = []) name = { inv_name = name; inv_args = args }

let with_response i ~term ~results =
  { name = i.inv_name; args = i.inv_args; term; results }

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c
  else
    let c = Value.compare_lists a.args b.args in
    if c <> 0 then c
    else
      let c = String.compare a.term b.term in
      if c <> 0 then c else Value.compare_lists a.results b.results

let equal a b = compare a b = 0

let compare_invocation a b =
  let c = String.compare a.inv_name b.inv_name in
  if c <> 0 then c else Value.compare_lists a.inv_args b.inv_args

let equal_invocation a b = compare_invocation a b = 0

(* Hashing consistent with [equal], for hashtables keyed by executions. *)
let hash_values vs =
  List.fold_left (fun acc v -> (acc * 131) + Value.hash v) 7 vs

let hash t =
  let h = Hashtbl.hash t.name in
  let h = (h * 65599) + hash_values t.args in
  let h = (h * 65599) + Hashtbl.hash t.term in
  (h * 65599) + hash_values t.results

let hash_invocation i =
  (Hashtbl.hash i.inv_name * 65599) + hash_values i.inv_args

(* Rendered without Format, like [Value.to_string]: "name(args)/term(results)". *)
let values vs = String.concat ", " (List.map Value.to_string vs)

let to_string t =
  String.concat "" [ t.name; "("; values t.args; ")/"; t.term; "("; values t.results; ")" ]

let pp ppf t = Fmt.string ppf (to_string t)

let pp_invocation ppf i =
  Fmt.string ppf (String.concat "" [ i.inv_name; "("; values i.inv_args; ")" ])
