(** The dispatcher: Figure 1 of the paper. *)

type quantum_result = Q_budget | Q_thread_done | Q_fault of string | Q_deadline

val run_quantum :
  Types.runtime -> Types.thread_state -> quantum_result
(** Run one thread until its scheduling budget is spent, it exits, it
    faults, or the deadline passes. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val recover_tag :
    Types.runtime ->
    Types.thread_state -> tag:int -> reason:string -> unit
  (** Graceful degradation for a damaged [tag], escalating one rung per
      detection: re-emit the fragment → flush every fragment built from
      its source ranges → request flush-the-world → demote the tag to
      permanent pure emulation.  Each rung strictly reduces how much the
      bad state can recur, so retries are bounded. *)
end
