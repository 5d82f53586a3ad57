(** Trace selection and generation (paper §2.4 / §3.3), split out of
    the dispatcher: trace-head promotion, block stitching, pending-CTI
    resolution, inline-check flags fixup, and trace finalization. *)

val make_head_entry :
  Types.runtime -> Types.fragment Fragindex.entry -> unit
(** Promote the tag of [e] to trace-head status: it loses its in-cache
    lookup entry and its incoming links, so every future execution
    passes through the dispatcher and bumps its counter. *)

val start_tracegen :
  Types.runtime -> Types.thread_state -> int -> unit

val finalize_trace :
  Types.runtime ->
  Types.thread_state ->
  Types.tracegen -> Types.fragment option
(** Close out a trace: run the trace hook, mangle, and emit.  Returns
    [None] when a bounded FIFO cache could not host the trace — the
    trace is dropped, the head's counter restarts, and execution
    continues on the constituent blocks. *)

val tracegen_step :
  Types.runtime ->
  Types.thread_state -> next:int -> Types.fragment option

val abort_tracegen : Types.runtime -> Types.thread_state -> unit

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val const_scan_stops : Isa.Opcode.t -> bool
end
