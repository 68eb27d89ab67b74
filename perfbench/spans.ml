(* The benchmark's own spans: one around each call the benchmark makes
   into a layer of the program.

   [time] always measures the call (two clock reads); when recording is
   on it also keeps a span — name, layer, start, end, parent span and
   the timed unit ("request") it belongs to — in memory.  [write] dumps
   them as JSON lines when the run ends.  A span's self time is its
   duration minus the part its direct children cover; the self time of
   a phase's root span is the part of that phase no layer call explains. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;  (** the timed unit the span belongs to *)
  name : string;
  layer : string;
  start : float;
  mutable stop : float;
}

let recording = ref false
let current_req = ref 0
let next_id = ref 1
let stack : span list ref = ref []
let closed : span list ref = ref []

let now = Unix.gettimeofday

let time ~layer name f =
  if not !recording then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    let s =
      { id = !next_id; parent; req = !current_req; name; layer; start = now (); stop = nan }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop <- now ();
      stack := List.tl !stack;
      closed := s :: !closed
    in
    match f () with
    | v ->
      finish ();
      (v, s.stop -. s.start)
    | exception e ->
      finish ();
      raise e
  end

let with_recording req f =
  current_req := req;
  recording := true;
  Fun.protect ~finally:(fun () -> recording := false) f

let all () = List.rev !closed
let duration s = s.stop -. s.start

(* Self time of every recorded span, keyed by id. *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace self s.id
        (duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans;
  self

(* The descendants of [root] (not [root] itself), in recording order. *)
let descendants spans root =
  let inside = Hashtbl.create 1024 in
  Hashtbl.replace inside root.id ();
  (* children close before their parent, so walk parents-first *)
  let by_start = List.sort (fun a b -> compare a.id b.id) spans in
  List.filter
    (fun s ->
      if Hashtbl.mem inside s.parent then begin
        Hashtbl.replace inside s.id ();
        true
      end
      else false)
    by_start

let write path spans =
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%s,\"layer\":%s,\"start_s\":%s,\"dur_s\":%s,\"self_s\":%s}\n"
            s.id s.parent s.req (Json.quote s.name) (Json.quote s.layer)
            (Json.number s.start) (Json.number (duration s))
            (Json.number (Hashtbl.find self s.id)))
        spans)
