(* Universal value domain shared by operation arguments, operation results
   and (where convenient) object states.  Keeping a single closed value type
   lets languages, alphabets and lattices over heterogeneous object types be
   compared, enumerated and printed uniformly. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs

let rec compare a b =
  match a, b with
  | Unit, Unit -> 0
  | Unit, _ -> -1
  | _, Unit -> 1
  | Bool x, Bool y -> Stdlib.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | List xs, List ys -> compare_lists xs ys

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* Rendered without Format: lineage keys render a value on every traced
   delivery, and a formatter per string costs more than the string.
   The printer has no break hints, so [pp] printing the rendered string
   is byte-identical to printing it piecewise. *)
let rec to_string = function
  | Unit -> "()"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Str s -> s
  | Pair (a, b) -> "(" ^ to_string a ^ ", " ^ to_string b ^ ")"
  | List vs -> "[" ^ String.concat "; " (List.map to_string vs) ^ "]"

let pp ppf v = Fmt.string ppf (to_string v)

let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let get_int v =
  match v with Int i -> i | _ -> invalid_arg "Value.get_int"

(* Hashing for use in hashtables keyed by values. *)
let rec hash v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 29 else 31
  | Int i -> Hashtbl.hash i
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> (hash a * 65599) + hash b
  | List vs -> List.fold_left (fun acc x -> (acc * 131) + hash x) 7 vs

module Set = Stdlib.Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Stdlib.Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
