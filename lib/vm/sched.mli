(** Cooperative round-robin scheduler for running programs directly on
    the simulated machine (native execution and pure emulation). *)

type outcome = {
  stop : Interp.stop;  (** why the last thread stopped *)
  cycles : int;
  insns : int;
}

val run :
  ?quantum:int -> ?max_cycles:int -> emulate:bool -> Machine.t -> outcome
(** Run all live threads to completion (or fault), round-robin. *)
