(* Just enough JSON for the benchmark: a reader for the repo's gate
   documents (expected_claims.json, expected_ldfi_coverage.json) and a
   number printer that keeps every digit of a measurement. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and i = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !i)) in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    then (incr i; skip ())
  in
  let expect c = skip (); if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then (i := !i + String.length word; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      match s.[!i] with
      | '"' -> incr i
      | '\\' when !i + 1 < n ->
        Buffer.add_char b (match s.[!i + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
        i := !i + 2; go ()
      | c -> Buffer.add_char b c; incr i; go ()
    in
    go (); Buffer.contents b
  in
  let rec value () =
    skip ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
      incr i; skip ();
      if !i < n && s.[!i] = '}' then (incr i; Obj [])
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !i < n && s.[!i] = ',' then (incr i; members ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        members []
    | '[' ->
      incr i; skip ();
      if !i < n && s.[!i] = ']' then (incr i; Arr [])
      else
        let rec elements acc =
          let v = value () in
          skip ();
          if !i < n && s.[!i] = ',' then (incr i; elements (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !i in
      while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
      (match float_of_string_opt (String.sub s start (!i - start)) with
       | Some f -> Num f
       | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing bytes";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
    really_input_string ic (in_channel_length ic))
  in
  parse s

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let to_list = function Arr l -> l | _ -> raise (Error "expected an array")

let to_string = function Str s -> s | _ -> raise (Error "expected a string")

let to_int = function
  | Num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Error "expected an integer")

let to_bool = function Bool b -> b | _ -> raise (Error "expected a boolean")

let field k v =
  match member k v with Some x -> x | None -> raise (Error ("missing field " ^ k))

(* Shortest round-tripping decimal: a measurement keeps all its digits,
   an integer-valued count prints as an integer. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
