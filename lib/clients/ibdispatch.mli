(** Adaptive indirect-branch dispatch (paper §4.3, Figure 4). *)

type params = { sample_threshold : int; max_inline : int }

val default_params : params

val make : ?params:params -> unit -> Rio.Types.client
