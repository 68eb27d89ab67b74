(* Proof strategies for the language claims.

   The pipeline (see {!Pipeline}) decides inclusion/equivalence claims
   either by synthesizing and certifying a forward simulation between
   the envelope-restricted automata — a verdict valid at any history
   length — or by the classical depth-bounded enumeration of
   {!Relax_core.Language}. *)

type t =
  | Auto  (* try simulation, fall back to bounded enumeration *)
  | Simulation  (* same pipeline, requested explicitly: claims that
                   still fall back are visible as [Bounded] methods *)
  | Bounded_enum  (* bounded enumeration only, never synthesize *)

let to_string = function
  | Auto -> "auto"
  | Simulation -> "sim"
  | Bounded_enum -> "enum"

let of_string = function
  | "auto" -> Some Auto
  | "sim" | "simulation" -> Some Simulation
  | "enum" | "bounded" -> Some Bounded_enum
  | _ -> None

let pp ppf s = Fmt.string ppf (to_string s)

(* A few claims saturate envelopes orders of magnitude larger than their
   bounded search.  At depth 8 on one domain of a 2-vCPU VM, simulating a
   FIFO QCA point costs 20–800 ms against 15–50 ms of enumeration, and a
   deep stuttering collapse 150–360 ms against 6–25 ms.  Under [Auto]
   those stay on enumeration, while an explicit [Simulation] request
   still attempts the synthesis. *)
let heavy = function Some Auto -> Some Bounded_enum | s -> s
