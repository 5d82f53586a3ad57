(** Command-line flags derived from the {!Options} knob table: every row
    that names a flag becomes one Cmdliner option, shared by [rio_run]
    and [rio_serve]. *)

val engine : (Options.t -> Options.t) Cmdliner.Term.t
(** Engine flags ([-O], [--trace-threshold], [--no-traces], ...). *)

val pool :
  (Options.pool_opts -> Options.pool_opts) Cmdliner.Term.t
(** Pool flags ([-d], [--retries], [--prewarm], ...). *)
