(* The lines of `rlx PATH --help=plain`, where [rlx] is the binary. *)
let lines rlx path =
  let args = Array.of_list ((rlx :: path) @ [ "--help=plain" ]) in
  let ic = Unix.open_process_args_in rlx args in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' text
  | _ -> failwith ("rlx " ^ String.concat " " path ^ " --help=plain failed")
