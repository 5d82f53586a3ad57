(** Basic-block building (Figure 1's "basic block builder", split out
    of the dispatcher): decode the application code at a tag, run the
    client's [basic_block] hook, mangle, seal, and emit a bb fragment. *)

val build_bb :
  Types.runtime ->
  Types.thread_state -> int -> Types.fragment
(** Build, register and return the basic-block fragment for a tag. *)
