(** Command-line flags derived from the {!Options} knob table: every row
    that names a flag becomes one Cmdliner option, shared by [rio_run]
    and [rio_serve].

    A term evaluates to an overlay, not a configuration: a flag that
    is given overrides its base (the defaults, or a [--bundle] file),
    and a flag that is not given leaves the base alone.  A boolean
    row's flag sets the opposite of the row's default ([--sideline],
    [--no-traces]); a pass-list flag is repeatable; an optional row's
    flag takes [none] to clear the base's value. *)

open Cmdliner

let text_conv (ty : 'a Options.ty) : 'a Arg.conv =
  Arg.conv'
    ( Options.parse ty,
      fun ppf v -> Format.pp_print_string ppf (Options.print ty v) )

(* [Some v] exactly when the row's flag is on the command line. *)
let given : type a. a Options.ty -> default:a -> Arg.info -> a option Term.t =
 fun ty ~default names ->
  match ty with
  | Options.Bool ->
      Term.(
        const (fun b -> if b then Some (not default) else None)
        $ Arg.(value & flag names))
  | Options.Passes ->
      Term.(
        const (function [] -> None | ps -> Some (List.concat ps))
        $ Arg.(value & opt_all (text_conv ty) [] names))
  | _ -> Arg.(value & opt (some' ~none:default (text_conv ty)) None names)

(** The overlay of every flagged row of [tbl]. *)
let overlay (type r) (tbl : r Options.table) : (r -> r) Term.t =
  List.fold_left
    (fun acc (Options.Knob k) ->
      match k.flag with
      | None -> acc
      | Some (names, docv) ->
          let arg =
            given k.ty ~default:(k.get tbl.default)
              (Arg.info names ~docv ~doc:k.doc)
          in
          Term.(
            const (fun f v r ->
                let r = f r in
                match v with None -> r | Some v -> k.set r v)
            $ acc $ arg))
    (Term.const Fun.id) tbl.rows

(** Engine flags ([-O], [--trace-threshold], [--no-traces], ...). *)
let engine : (Options.t -> Options.t) Term.t = overlay Options.engine_table

(** Pool flags ([-d], [--retries], [--prewarm], ...). *)
let pool : (Options.pool_opts -> Options.pool_opts) Term.t =
  overlay Options.pool_table
