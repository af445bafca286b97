(* The value of every command line's [--jobs]: an int that
   [Pool.check_jobs] accepts.  A bad count is then a usage error
   (exit 124), reported before any domain is spawned. *)
let conv =
  let parse s =
    match int_of_string_opt s with
    | Some n -> Pool.check_jobs n
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Cmdliner.Arg.conv' ~docv:"N" (parse, Format.pp_print_int)
