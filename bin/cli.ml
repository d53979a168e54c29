(** Helpers shared by the [jitise] subcommands and [jitise bench]. *)

module W = Jitise_workloads
module Ise = Jitise_ise
module Core = Jitise_core

let db = lazy (Jitise_pivpav.Database.create ())

let load_workload name =
  match W.Registry.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (try `jitise list`)\n" name;
      exit 1

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a count >= 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

(* The online loop wants one candidate per phase kernel, so it disables
   the batch sweep's pruning filter: the controller itself decides what
   is worth implementing, using live evidence instead of a whole-run
   profile. *)
let online_spec ?(online = Core.Spec.default_online) ~jobs () =
  Core.Spec.default
  |> Core.Spec.with_prune Ise.Prune.none
  |> Core.Spec.with_jobs jobs
  |> Core.Spec.with_online online
