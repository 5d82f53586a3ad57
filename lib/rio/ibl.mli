(** Indirect-branch lookup (paper §2.3), split out of the dispatcher. *)

val handle_indirect_exit :
  Types.runtime ->
  Types.thread_state ->
  Types.exit_ -> [ `Dispatch | `Stay of Types.fragment ]
(** Resolve an indirect exit's target: [`Stay f] continues in the
    cache at [f]; [`Dispatch] returns to the dispatcher. *)
