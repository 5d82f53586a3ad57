(* The types of {!Engine}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type stop_reason =
  | All_exited
  | App_fault of string
  | Cycle_limit
  | Deadline_exceeded
      (** the per-request watchdog (see {!Engine.set_watchdog}) fired: the run
          was preempted at a fragment boundary *)
  | Crashed of string
      (** produced only by {!Pool}'s exception barrier, never by
          {!Engine.run}: an uncaught exception escaped the engine *)

type outcome = {
  reason : stop_reason;
  cycles : int;
  insns : int;
}
